// Package core is the paper's contribution assembled into a runnable
// evaluation pipeline: a Setup pairs one of the predication variants
// (Section IV-A/B) with a microarchitecture configuration (BTAC of
// Section IV-D, fixed-point unit count of Section VI-C), and runners
// execute the BioPerf DP kernels on real data through the compiler and
// the POWER5 timing model, aggregating hardware counters the way the
// paper's SystemSim methodology does — including SMARTS-style sampled
// simulation and the interval statistics behind Figure 2.
package core

import (
	"fmt"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/machine"
)

// Setup is one evaluated machine: how the kernel is compiled plus the
// core configuration it runs on.
type Setup struct {
	Name    string
	Variant kernels.Variant
	CPU     cpu.Config
}

// Baseline is the unmodified POWER5 running unmodified (branchy) code.
func Baseline() Setup {
	return Setup{Name: "POWER5 baseline", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline()}
}

// WithVariant returns the setup recompiled under a predication variant.
func (s Setup) WithVariant(v kernels.Variant) Setup {
	s.Variant = v
	s.Name = fmt.Sprintf("%s + %s", s.Name, v)
	return s
}

// WithBTAC returns the setup with the 8-entry score-based BTAC enabled.
func (s Setup) WithBTAC() Setup {
	s.CPU.UseBTAC = true
	s.Name += " + BTAC"
	return s
}

// WithFXUs returns the setup with n fixed-point units.
func (s Setup) WithFXUs(n int) Setup {
	s.CPU.NumFXU = n
	s.Name += fmt.Sprintf(" + %d FXUs", n)
	return s
}

// stepLimit bounds a single kernel invocation.
const stepLimit = 500_000_000

// SeedReport is one seed's detailed simulation outcome.
type SeedReport struct {
	Seed     int64          `json:"seed"`
	Counters cpu.Counters   `json:"counters"`
	Stalls   cpu.StallStack `json:"stall_stack"`
}

// Detail is a per-seed view of one kernel/setup simulation plus the
// field-wise aggregate — the data behind the harness JSON reports and
// the `bioperf5 stats` subcommand.
type Detail struct {
	Seeds     []SeedReport `json:"seeds"`
	Aggregate cpu.Report   `json:"aggregate"`
}

// RunProfiled simulates one invocation per seed on the live timing
// path with a branch profiler attached.  The profiler observes every
// resolved conditional branch and BTAC lookup without touching timing,
// so the counters are identical to an unprofiled run — but the run
// always executes live: profilers cannot ride the cached or
// trace-replayed paths, whose results are shared across callers.
func RunProfiled(k *kernels.Kernel, s Setup, seeds []int64, scale int, prof cpu.BranchProfiler) (*Detail, error) {
	if scale < 1 {
		scale = 1
	}
	det := &Detail{}
	for _, seed := range seeds {
		run, err := k.NewRun(seed, scale)
		if err != nil {
			return nil, err
		}
		rep, err := kernels.SimulateObserved(k, s.Variant, run, s.CPU, stepLimit,
			kernels.Observer{Branches: prof})
		if err != nil {
			return nil, err
		}
		det.Seeds = append(det.Seeds, SeedReport{Seed: seed, Counters: rep.Counters, Stalls: rep.Stalls})
		det.Aggregate = det.Aggregate.Add(rep)
	}
	return det, nil
}

// Interval is one sampling window of a run (Figure 2's x-axis is
// time; instructions retired is the architecture-independent analogue).
type Interval struct {
	Instructions   uint64 // cumulative instructions at the window end
	IPC            float64
	MispredictRate float64
}

// RunIntervals simulates one invocation and snapshots the counters
// every `every` instructions, reproducing the IPC-vs-time and
// mispredict-vs-time traces of Figure 2.
func RunIntervals(k *kernels.Kernel, s Setup, seed int64, scale int, every uint64) ([]Interval, error) {
	if every == 0 {
		return nil, fmt.Errorf("core: zero interval length")
	}
	run, err := k.NewRun(seed, scale)
	if err != nil {
		return nil, err
	}
	live, err := kernels.NewLive(k, s.Variant, s.CPU)
	if err != nil {
		return nil, err
	}
	var out []Interval
	var prev cpu.Counters
	var steps uint64
	_, err = kernels.Stream(k, s.Variant, run, stepLimit, func(d machine.DynInst) error {
		if err := live.Step(d); err != nil {
			return err
		}
		if steps++; steps%every == 0 {
			cur := live.Counters()
			win := cur.Sub(prev)
			out = append(out, Interval{
				Instructions:   cur.Instructions,
				IPC:            win.IPC(),
				MispredictRate: win.BranchMispredictRate(),
			})
			prev = cur
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SampleConfig is a SMARTS-style systematic sampling schedule: Detail
// instructions are simulated in full detail, then Skip instructions are
// fast-forwarded functionally (the machine state advances, the timing
// model does not), repeating.
type SampleConfig struct {
	Detail uint64
	Skip   uint64
}

// SampledResult extrapolates whole-run cycles from the detailed
// windows, as SMARTS does.
type SampledResult struct {
	Detailed        cpu.Counters // counters accumulated in detailed windows
	TotalInstr      uint64       // instructions executed (all modes)
	EstimatedCycles float64      // detailed CPI x total instructions
}

// EstimatedIPC returns the whole-run IPC estimate.
func (r SampledResult) EstimatedIPC() float64 {
	if r.EstimatedCycles == 0 {
		return 0
	}
	return float64(r.TotalInstr) / r.EstimatedCycles
}

// RunSampled simulates one invocation under the sampling schedule.
// Fast-forwarded instructions advance only the functional machine:
// neither the timing model nor its cache hierarchy sees them.
func RunSampled(k *kernels.Kernel, s Setup, seed int64, scale int, sc SampleConfig) (SampledResult, error) {
	if sc.Detail == 0 {
		return SampledResult{}, fmt.Errorf("core: zero detail window")
	}
	run, err := k.NewRun(seed, scale)
	if err != nil {
		return SampledResult{}, err
	}
	live, err := kernels.NewLive(k, s.Variant, s.CPU)
	if err != nil {
		return SampledResult{}, err
	}
	var res SampledResult
	inWindow := uint64(0)
	detail := true
	res.TotalInstr, err = kernels.Stream(k, s.Variant, run, stepLimit, func(d machine.DynInst) error {
		if detail {
			if err := live.Step(d); err != nil {
				return err
			}
		}
		inWindow++
		if detail && inWindow >= sc.Detail {
			detail, inWindow = sc.Skip == 0, 0
		} else if !detail && inWindow >= sc.Skip {
			detail, inWindow = true, 0
		}
		return nil
	})
	res.Detailed = live.Counters()
	if res.Detailed.Instructions > 0 {
		cpi := float64(res.Detailed.Cycles) / float64(res.Detailed.Instructions)
		res.EstimatedCycles = cpi * float64(res.TotalInstr)
	}
	return res, err
}
