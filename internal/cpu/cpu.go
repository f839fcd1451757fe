// Package cpu implements the cycle-approximate POWER5-like core timing
// model.  It is trace-driven: every dynamic instruction reaches the
// model as a ReplayEvent — the functional machine's step (resolved
// branch outcome, effective address) annotated with the data-cache miss
// level — and Replayer.Consume charges cycles the way the POWER5
// pipeline would.  The events come either from a stored trace or live
// from the functional machine (Live); the model cannot tell the two
// apart, which is what makes replayed and live results bit-identical.
//
// The model covers exactly the behaviours the paper measures and varies:
//
//   - an 8-wide fetch front end with a 2-cycle taken-branch bubble
//     (3 with SMT), removable by the score-based BTAC of Section IV-D;
//   - a tournament direction predictor whose mispredictions flush the
//     pipeline (the dominant cost for DP kernels, Table I / Figure 2);
//   - 5-wide dispatch and in-order 5-wide completion over a reorder
//     window, with completion-stall attribution by functional-unit
//     class (Table I's "stalls due FXU instructions");
//   - configurable numbers of fully pipelined FXUs (Figure 5), plus
//     LSUs and a BRU;
//   - load-to-use latencies from an L1D/L2 data-cache hierarchy
//     (Table I's L1D miss rate), whose miss levels arrive annotated.
//
// Out-of-order issue is modelled with true data dependencies only
// (registers renamed perfectly, as on POWER5 within its window), using
// per-register ready cycles and earliest-free functional units.
package cpu

import (
	"fmt"

	"bioperf5/internal/branch"
)

// Config selects the microarchitectural parameters.  The zero value is
// not usable; start from POWER5Baseline.
type Config struct {
	FetchWidth    int // instructions fetched per cycle (POWER5: 8)
	DispatchWidth int // instructions dispatched per cycle (POWER5: 5)
	CompleteWidth int // instructions completed per cycle (POWER5: 5)

	NumFXU int // fixed-point units (POWER5: 2; the paper tries 3 and 4)
	NumLSU int // load/store units (POWER5: 2)
	NumBRU int // branch units (POWER5: 1)
	NumCRU int // condition-register units (POWER5: 1)

	Window int // reorder window in instructions

	FrontendDepth      int // fetch-to-dispatch pipeline depth in cycles
	MispredictPenalty  int // flush/refetch penalty for a mispredicted branch
	TakenBranchPenalty int // fetch bubble for a taken branch (POWER5: 2, 3 with SMT)

	Predictor string // direction predictor name (see branch.New)

	UseBTAC bool              // add the Section IV-D BTAC
	BTAC    branch.BTACConfig // BTAC geometry when UseBTAC

	// Extensions gates decode support for the paper's new instructions.
	// With it false, a program containing max/isel faults, mirroring an
	// unmodified POWER5.
	Extensions bool
}

// POWER5Baseline returns the configuration matching the paper's in-lab
// 1.65 GHz POWER5 (one core, SMT off): 8-wide fetch, 5-wide
// dispatch/complete, 2 FXUs, 2 LSUs, 2-cycle taken-branch delay, no
// BTAC, no predicated instructions.
func POWER5Baseline() Config {
	return Config{
		FetchWidth:         8,
		DispatchWidth:      5,
		CompleteWidth:      5,
		NumFXU:             2,
		NumLSU:             2,
		NumBRU:             1,
		NumCRU:             1,
		Window:             120,
		FrontendDepth:      6,
		MispredictPenalty:  12,
		TakenBranchPenalty: 2,
		Predictor:          "tournament",
		BTAC:               branch.DefaultBTACConfig(),
	}
}

// Validate reports structurally impossible configurations.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.CompleteWidth <= 0:
		return fmt.Errorf("cpu: non-positive pipeline width")
	case c.NumFXU <= 0 || c.NumLSU <= 0 || c.NumBRU <= 0 || c.NumCRU <= 0:
		return fmt.Errorf("cpu: need at least one unit of each class")
	case c.Window <= 0:
		return fmt.Errorf("cpu: non-positive reorder window")
	case c.MispredictPenalty < 0 || c.TakenBranchPenalty < 0 || c.FrontendDepth < 0:
		return fmt.Errorf("cpu: negative latency")
	}
	return nil
}

// Counters is the hardware performance-counter set of the model; it is
// a superset of the events the paper reports.
type Counters struct {
	Cycles       uint64
	Instructions uint64

	FXUOps  uint64 // instructions executed on FXUs (includes cmp/max/isel)
	LSUOps  uint64
	BRUOps  uint64
	CmpOps  uint64 // compare instructions (isel path-length effect)
	MaxOps  uint64 // executed max instructions
	IselOps uint64 // executed isel instructions

	Branches       uint64 // all branch instructions
	CondBranches   uint64 // conditional branches
	TakenBranches  uint64 // branches that were taken
	DirMispredicts uint64 // direction mispredictions (conditional only)
	TgtMispredicts uint64 // target mispredictions (BTAC predicted wrong nia)

	BTACLookups  uint64 // taken branches that consulted the BTAC
	BTACPredicts uint64 // lookups confident enough to predict
	BTACCorrect  uint64 // predictions with the right target
	TakenBubbles uint64 // taken branches that paid the fetch bubble

	L1DAccesses uint64
	L1DMisses   uint64
	L2Accesses  uint64
	L2Misses    uint64

	// Completion-stall attribution: cycles in which no instruction
	// completed, attributed to what the oldest instruction was doing.
	StallFXU      uint64 // oldest instruction executing in an FXU
	StallLSU      uint64 // oldest instruction waiting on a load/store
	StallBRU      uint64
	StallFrontend uint64 // completion starved by fetch (flush refill etc.)
}

// IPC returns committed instructions per cycle.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// L1DMissRate returns L1D misses per access.
func (c Counters) L1DMissRate() float64 {
	if c.L1DAccesses == 0 {
		return 0
	}
	return float64(c.L1DMisses) / float64(c.L1DAccesses)
}

// BranchMispredictRate returns direction+target mispredictions per
// conditional branch, the rate plotted in Figure 2.
func (c Counters) BranchMispredictRate() float64 {
	if c.CondBranches == 0 {
		return 0
	}
	return float64(c.DirMispredicts+c.TgtMispredicts) / float64(c.CondBranches)
}

// DirectionShare returns the fraction of all mispredictions that are
// direction (not target) mispredictions — Table I's third column.
func (c Counters) DirectionShare() float64 {
	total := c.DirMispredicts + c.TgtMispredicts
	if total == 0 {
		return 0
	}
	return float64(c.DirMispredicts) / float64(total)
}

// BranchFraction returns branches per instruction (Table II column 1).
func (c Counters) BranchFraction() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.Branches) / float64(c.Instructions)
}

// TakenFraction returns taken branches per branch (Table II column 3).
func (c Counters) TakenFraction() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.TakenBranches) / float64(c.Branches)
}

// BTACMispredictRate returns wrong-target predictions per BTAC
// prediction (the table under Figure 4).
func (c Counters) BTACMispredictRate() float64 {
	if c.BTACPredicts == 0 {
		return 0
	}
	return float64(c.BTACPredicts-c.BTACCorrect) / float64(c.BTACPredicts)
}

// StallFXUShare returns FXU completion-stall cycles as a fraction of all
// cycles (Table I's last column).
func (c Counters) StallFXUShare() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.StallFXU) / float64(c.Cycles)
}

// Add returns c + o field-wise; used to aggregate counters over
// multiple kernel invocations of one workload.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Cycles:         c.Cycles + o.Cycles,
		Instructions:   c.Instructions + o.Instructions,
		FXUOps:         c.FXUOps + o.FXUOps,
		LSUOps:         c.LSUOps + o.LSUOps,
		BRUOps:         c.BRUOps + o.BRUOps,
		CmpOps:         c.CmpOps + o.CmpOps,
		MaxOps:         c.MaxOps + o.MaxOps,
		IselOps:        c.IselOps + o.IselOps,
		Branches:       c.Branches + o.Branches,
		CondBranches:   c.CondBranches + o.CondBranches,
		TakenBranches:  c.TakenBranches + o.TakenBranches,
		DirMispredicts: c.DirMispredicts + o.DirMispredicts,
		TgtMispredicts: c.TgtMispredicts + o.TgtMispredicts,
		BTACLookups:    c.BTACLookups + o.BTACLookups,
		BTACPredicts:   c.BTACPredicts + o.BTACPredicts,
		BTACCorrect:    c.BTACCorrect + o.BTACCorrect,
		TakenBubbles:   c.TakenBubbles + o.TakenBubbles,
		L1DAccesses:    c.L1DAccesses + o.L1DAccesses,
		L1DMisses:      c.L1DMisses + o.L1DMisses,
		L2Accesses:     c.L2Accesses + o.L2Accesses,
		L2Misses:       c.L2Misses + o.L2Misses,
		StallFXU:       c.StallFXU + o.StallFXU,
		StallLSU:       c.StallLSU + o.StallLSU,
		StallBRU:       c.StallBRU + o.StallBRU,
		StallFrontend:  c.StallFrontend + o.StallFrontend,
	}
}

// Sub returns c - o field-wise; used for interval statistics (Figure 2).
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Cycles:         c.Cycles - o.Cycles,
		Instructions:   c.Instructions - o.Instructions,
		FXUOps:         c.FXUOps - o.FXUOps,
		LSUOps:         c.LSUOps - o.LSUOps,
		BRUOps:         c.BRUOps - o.BRUOps,
		CmpOps:         c.CmpOps - o.CmpOps,
		MaxOps:         c.MaxOps - o.MaxOps,
		IselOps:        c.IselOps - o.IselOps,
		Branches:       c.Branches - o.Branches,
		CondBranches:   c.CondBranches - o.CondBranches,
		TakenBranches:  c.TakenBranches - o.TakenBranches,
		DirMispredicts: c.DirMispredicts - o.DirMispredicts,
		TgtMispredicts: c.TgtMispredicts - o.TgtMispredicts,
		BTACLookups:    c.BTACLookups - o.BTACLookups,
		BTACPredicts:   c.BTACPredicts - o.BTACPredicts,
		BTACCorrect:    c.BTACCorrect - o.BTACCorrect,
		TakenBubbles:   c.TakenBubbles - o.TakenBubbles,
		L1DAccesses:    c.L1DAccesses - o.L1DAccesses,
		L1DMisses:      c.L1DMisses - o.L1DMisses,
		L2Accesses:     c.L2Accesses - o.L2Accesses,
		L2Misses:       c.L2Misses - o.L2Misses,
		StallFXU:       c.StallFXU - o.StallFXU,
		StallLSU:       c.StallLSU - o.StallLSU,
		StallBRU:       c.StallBRU - o.StallBRU,
		StallFrontend:  c.StallFrontend - o.StallFrontend,
	}
}
