package cpu

import (
	"fmt"
	"reflect"
	"strconv"

	"bioperf5/internal/branch"
	"bioperf5/internal/isa"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// This file is the timing model.  Replayer consumes one ReplayEvent per
// dynamic instruction, whether the event was decoded from a stored
// trace or produced live from the functional machine (see Live): the
// miss level of every memory access arrives annotated on the event (it
// is invariant across the timing configurations a sweep varies), while
// both branch predictors — the direction predictor and the BTAC, whose
// choice and geometry the sweeps change — run inside the model.  A
// direction predictor is a pure function of the (pc, taken) stream, so
// running it here costs little and keeps the predictor out of trace
// identity: one capture serves the whole predictor zoo.  Everything
// static per PC (op class, register uses and defs, latencies) is
// precomputed once per compiled program by ProgMeta.

// InsMeta is the static per-instruction metadata replay needs, laid
// out for a flat lookup by PC.
type InsMeta struct {
	Uses   [3]isa.Reg // read registers, in Instruction.Uses order
	NUses  uint8
	Def    isa.Reg // written register (at most one in the ISA)
	HasDef bool

	Class  isa.Class
	Lat    uint64 // static execution latency (loads: overridden by miss level)
	Load   bool
	Store  bool
	Branch bool
	CondBr bool
	Ext    bool // instruction requires ISA extensions (max/isel)

	kind uint8 // op-counter bucket, see kind* below
	Op   isa.Op
}

// Op-counter buckets: a compare counts as CmpOps, then max, then isel.
const (
	kindNone = iota
	kindCmp
	kindMax
	kindIsel
)

// ProgMeta precomputes the per-PC metadata for a compiled program.  It
// is pure and deterministic; kernels caches it alongside the program.
func ProgMeta(p *isa.Program) []InsMeta {
	metas := make([]InsMeta, len(p.Code))
	var regs []isa.Reg
	for i := range p.Code {
		ins := &p.Code[i]
		info := ins.Op.Info()
		m := &metas[i]
		m.Class = info.Class
		m.Lat = uint64(info.Latency)
		m.Load = info.Load
		m.Store = info.Store
		m.Branch = info.Branch
		m.CondBr = info.CondBr
		m.Ext = ins.Op == isa.OpMax || ins.Op == isa.OpIsel
		m.Op = ins.Op
		switch {
		case info.Compare:
			m.kind = kindCmp
		case ins.Op == isa.OpMax:
			m.kind = kindMax
		case ins.Op == isa.OpIsel:
			m.kind = kindIsel
		}
		regs = ins.Uses(regs[:0])
		m.NUses = uint8(copy(m.Uses[:], regs))
		regs = ins.Defs(regs[:0])
		if len(regs) > 0 {
			m.Def, m.HasDef = regs[0], true
		}
	}
	return metas
}

// ReplayEvent is one dynamic instruction as the timing model sees it:
// the static metadata for its PC plus the dynamic facts the annotated
// record carries.  EA is carried for the pipeline trace only; the miss
// level already encodes what the cache said, so EA never affects
// timing.
type ReplayEvent struct {
	Meta      *InsMeta
	PC        int
	Next      int
	Taken     bool
	EA        uint64 // memory ops: effective address (observability only)
	MissLevel uint8  // memory ops: 0 L1 hit, 1 L2 hit, 2 memory
}

// Set fills ev from one annotated record and the program's metadata.
// It is the single conversion from record to event, shared by trace
// replay and the live path.  It reports false, leaving ev untouched,
// when the record's PC lies outside the program.
func (ev *ReplayEvent) Set(meta []InsMeta, rec *trace.Record) bool {
	if rec.PC < 0 || rec.PC >= len(meta) {
		return false
	}
	*ev = ReplayEvent{
		Meta:      &meta[rec.PC],
		PC:        rec.PC,
		Next:      rec.Next,
		Taken:     rec.Taken,
		EA:        rec.EA,
		MissLevel: rec.MissLevel,
	}
	return true
}

// Fetch-redirect causes, indexing fcBucket.
const (
	fcNone = iota
	fcMispredict
	fcTakenBubble
)

// fcBucket names each fetch-redirect cause as a stall bucket.
var fcBucket = [...]string{fcNone: "", fcMispredict: BucketMispredictFlush, fcTakenBubble: BucketTakenBubble}

// BranchProfiler observes every resolved branch the model times, keyed
// by static PC.  The bprof package implements it to build the
// per-static-branch predictability profile; the interface lives here
// so cpu does not depend on the profiler.
type BranchProfiler interface {
	// OnCondBranch is called once per conditional branch with the
	// resolved direction and whether the direction predictor
	// mispredicted it.
	OnCondBranch(pc int, taken, mispredicted bool)
	// OnBTAC is called once per BTAC lookup (taken branches with a BTAC
	// configured): predicted reports whether the BTAC was confident
	// enough to supply a target, wrong whether that target was wrong.
	OnBTAC(pc int, predicted, wrong bool)
}

// Replayer is the timing model for one core, fed one ReplayEvent per
// dynamic instruction.
type Replayer struct {
	cfg     Config
	pred    branch.DirectionPredictor
	btac    *branch.BTAC
	loadLat [3]uint64 // load-to-use latency per miss level

	ctr    Counters
	stalls StallStack

	// Pipeline timing state.  All times are absolute cycle numbers.
	fetchCycle   uint64 // cycle the next instruction can be fetched
	fetchedAt    uint64 // how many instructions fetched in fetchCycle
	fetchCause   uint8  // why fetchCycle was last pushed back (fcNone = streaming)
	dispCycle    uint64
	dispatchedAt uint64
	complCycle   uint64 // cycle of the most recent completion
	completedAt  uint64 // completions in complCycle

	regReady  [isa.NumRegs]uint64
	regWriter [isa.NumRegs]isa.Class // unit class of each register's last producer
	regMiss   [isa.NumRegs]uint8     // cache-miss level of each register's producing load
	units     [4][]uint64            // next-free cycle per unit, indexed by isa.Class

	// Observability hooks; each is nil when not attached, and none
	// alters timing.
	trace        *telemetry.TraceBuffer
	histLoad     *telemetry.Histogram
	histFlush    *telemetry.Histogram
	mispredictPC *telemetry.LabeledCounter
	profiler     BranchProfiler

	// Completion-group accounting for stall attribution.
	groupCompl uint64   // cycle the previous completion group retired
	groupFill  uint64   // instructions accumulated into the current group
	window     []uint64 // completion cycles, ring of size Window
	wpos       int
	wcount     int
}

// NewReplayer builds a timing model for cfg charging the given
// per-level load latencies (recorded in the trace meta at capture
// time, or taken from the live hierarchy).
func NewReplayer(cfg Config, loadLat [3]int) (*Replayer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Replayer{cfg: cfg, pred: branch.New(cfg.Predictor)}
	if cfg.UseBTAC {
		r.btac = branch.NewBTAC(cfg.BTAC)
	}
	r.units[isa.ClassFXU] = make([]uint64, cfg.NumFXU)
	r.units[isa.ClassLSU] = make([]uint64, cfg.NumLSU)
	r.units[isa.ClassBRU] = make([]uint64, cfg.NumBRU)
	r.units[isa.ClassCRU] = make([]uint64, cfg.NumCRU)
	r.window = make([]uint64, cfg.Window)
	r.fetchCycle = 1
	for i, l := range loadLat {
		r.loadLat[i] = uint64(l)
	}
	return r, nil
}

// Counters returns a snapshot of the accumulated counters with Cycles
// set to the current pipeline time.
func (r *Replayer) Counters() Counters {
	c := r.ctr
	c.Cycles = r.complCycle
	return c
}

// Stalls returns the CPI stall stack accumulated so far.  Its Total
// always equals Counters().Cycles: every cycle the completion point has
// advanced is attributed to exactly one bucket.
func (r *Replayer) Stalls() StallStack { return r.stalls }

// Report returns counters and stall stack together.
func (r *Replayer) Report() Report {
	return Report{Counters: r.Counters(), Stalls: r.Stalls()}
}

// SetTrace attaches a pipeline event trace: every consumed instruction
// appends one lifecycle record to buf.  Pass nil to stop tracing.
func (r *Replayer) SetTrace(buf *telemetry.TraceBuffer) { r.trace = buf }

// SetBranchProfiler attaches a per-static-branch observer; pass nil to
// detach.  Profiling never alters timing: the hooks fire after the
// predictors have been consulted and trained.
func (r *Replayer) SetBranchProfiler(p BranchProfiler) { r.profiler = p }

// AttachTelemetry wires the model's streaming distributions into reg:
// load-to-use latencies, misprediction flush lengths, and per-PC branch
// mispredict counts are observed live as instructions are consumed.
// Snapshot-style counters are published separately via PublishTo.
func (r *Replayer) AttachTelemetry(reg *telemetry.Registry) {
	r.histLoad = reg.Histogram("cpu.load_to_use.cycles", nil)
	r.histFlush = reg.Histogram("cpu.flush.cycles", nil)
	r.mispredictPC = reg.Labeled("cpu.branch.mispredict.pc")
}

// PublishTo mirrors the model's current state into reg: every Counters
// field (reflected, so new counters are picked up automatically), the
// stall-stack buckets, the headline derived rates, and the BTAC's
// statistics.  The cache hierarchy belongs to whoever annotates the
// events and is published by its owner.
func (r *Replayer) PublishTo(reg *telemetry.Registry) {
	c := r.Counters()
	v := reflect.ValueOf(c)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		reg.Counter("cpu." + t.Field(i).Name).Set(v.Field(i).Uint())
	}
	reg.Gauge("cpu.rate.ipc").Set(c.IPC())
	reg.Gauge("cpu.rate.l1d_miss").Set(c.L1DMissRate())
	reg.Gauge("cpu.rate.branch_mispredict").Set(c.BranchMispredictRate())
	// Direction mispredicts attributed to the predictor that produced
	// them, labeled by canonical spec so every spelling of a predictor
	// aggregates into one row.
	spec := branch.CanonicalOrRaw(r.cfg.Predictor)
	lc := reg.Labeled("branch.pred.mispredicts")
	if have := lc.Value(spec); c.DirMispredicts > have {
		lc.Add(spec, c.DirMispredicts-have)
	}
	for _, b := range r.stalls.Buckets() {
		reg.Counter("cpu.stall." + b.Name).Set(b.Cycles)
	}
	if r.btac != nil {
		r.btac.PublishTo(reg)
	}
}

// Consume advances the pipeline model by one dynamic instruction.
func (r *Replayer) Consume(ev *ReplayEvent) error {
	meta := ev.Meta
	if meta.Ext && !r.cfg.Extensions {
		return fmt.Errorf("cpu: illegal instruction %s: ISA extensions disabled (unmodified POWER5)", meta.Op)
	}

	// ---- Fetch: width-limited, plus any pending front-end bubble.
	fetchC := r.fetchCycle
	if r.fetchedAt >= uint64(r.cfg.FetchWidth) {
		fetchC++
	}
	if fetchC > r.fetchCycle {
		r.fetchCycle = fetchC
		r.fetchedAt = 0
		// Advancing by fetch width means the front end is streaming
		// again; the last redirect no longer explains this cycle.
		r.fetchCause = fcNone
	}
	fcause := r.fetchCause // why this instruction's fetch cycle is late
	r.fetchedAt++

	// ---- Dispatch: width-limited, in order, after the front-end depth,
	// and only when the reorder window has space.
	dispC := fetchC + uint64(r.cfg.FrontendDepth)
	if dispC < r.dispCycle {
		dispC = r.dispCycle
	}
	if dispC == r.dispCycle && r.dispatchedAt >= uint64(r.cfg.DispatchWidth) {
		dispC++
	}
	windowLimited := false
	if r.wcount >= len(r.window) {
		// Window full: wait for the oldest instruction to complete.
		if oldest := r.window[r.wpos]; dispC <= oldest {
			dispC = oldest + 1
			windowLimited = true
		}
	}
	if dispC > r.dispCycle {
		r.dispCycle = dispC
		r.dispatchedAt = 0
	}
	r.dispatchedAt++

	// ---- Issue: after dispatch, operands ready, and a unit free.
	readyC := dispC + 1
	blockerClass := isa.ClassFXU
	blockerMiss := uint8(0) // cache-miss level of the blocking producer load
	for i := uint8(0); i < meta.NUses; i++ {
		reg := meta.Uses[i]
		if r.regReady[reg] > readyC {
			readyC = r.regReady[reg]
			blockerClass = r.regWriter[reg]
			blockerMiss = r.regMiss[reg]
		}
	}
	class := meta.Class
	units := r.units[class]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	issueC := readyC
	if units[best] > issueC {
		issueC = units[best]
	}
	units[best] = issueC + 1 // fully pipelined units

	// The class whose delay dominates this instruction's issue: the
	// producer of its latest operand, or its own unit when the unit
	// itself was the constraint.
	stallClass := blockerClass
	if issueC > readyC {
		stallClass = class
	}

	// ---- Execute: the miss level comes annotated on the event and the
	// latency from the per-level table.
	lat := meta.Lat
	missLevel := uint8(0) // 0 = hit/not a load, 1 = L1D miss, 2 = missed L2 too
	if meta.Load || meta.Store {
		r.ctr.L1DAccesses++
		if ev.MissLevel >= 1 {
			r.ctr.L1DMisses++
			r.ctr.L2Accesses++
			if ev.MissLevel >= 2 {
				r.ctr.L2Misses++
			}
		}
		if meta.Load {
			missLevel = ev.MissLevel
			lat = r.loadLat[missLevel]
			if r.histLoad != nil {
				r.histLoad.Observe(lat)
			}
		}
		// Stores retire from the LSU in one cycle with missLevel 0; the
		// line fill still charged the cache counters, matching a store
		// queue that drains off the critical path.
	}
	doneC := issueC + lat
	if meta.HasDef {
		r.regReady[meta.Def] = doneC
		r.regWriter[meta.Def] = class
		r.regMiss[meta.Def] = missLevel
	}

	switch class {
	case isa.ClassFXU:
		r.ctr.FXUOps++
	case isa.ClassLSU:
		r.ctr.LSUOps++
	case isa.ClassBRU:
		r.ctr.BRUOps++
	}
	switch meta.kind {
	case kindCmp:
		r.ctr.CmpOps++
	case kindMax:
		r.ctr.MaxOps++
	case kindIsel:
		r.ctr.IselOps++
	}

	// ---- Branch resolution: redirect the front end.
	flush := uint8(fcNone)
	if meta.Branch {
		flush = r.branchTiming(ev, fetchC, doneC)
	}

	// ---- In-order completion, width-limited.
	complC := doneC
	if complC < r.complCycle {
		complC = r.complCycle
	}
	if complC == r.complCycle && r.completedAt >= uint64(r.cfg.CompleteWidth) {
		complC++
	}
	// CPI stall stack: when this instruction moves the completion point
	// forward, charge those cycles to its dominant constraint.  Every
	// advance of complCycle flows through here, so the buckets sum to
	// the final cycle count by construction.
	var stallBucket string
	if complC > r.complCycle {
		stallBucket = r.chargeStalls(complC-r.complCycle, r.complCycle,
			doneC, issueC, readyC, dispC, class, blockerClass, blockerMiss,
			missLevel, windowLimited, fcause)
	}
	// Completion-stall attribution at POWER5 group granularity: every
	// CompleteWidth instructions form a completion group, and the
	// cycles in which no group completed are charged once — to the
	// unit class that delayed the group's critical instruction
	// (Table I's "completion stalls due to FXU instructions"), or to
	// the front end when the group simply arrived late (flush refill,
	// fetch bubbles).
	r.groupFill++
	if gap := int64(complC) - int64(r.groupCompl) - 1; gap > 0 {
		stall := uint64(gap)
		switch {
		case doneC == complC && (issueC > dispC+1 || lat > 1):
			if issueC > dispC+1 {
				r.attributeStall(stallClass, stall)
			} else {
				r.attributeStall(class, stall) // long-latency execution
			}
		default:
			r.ctr.StallFrontend += stall
		}
		r.groupCompl = complC
		r.groupFill = 0
	} else if r.groupFill >= uint64(r.cfg.CompleteWidth) {
		r.groupCompl = complC
		r.groupFill = 0
	}
	if complC > r.complCycle {
		r.complCycle = complC
		r.completedAt = 0
	}
	r.completedAt++

	// Reorder-window bookkeeping.
	if r.wcount >= len(r.window) {
		r.wpos = (r.wpos + 1) % len(r.window)
	} else {
		r.wcount++
	}
	idx := (r.wpos + r.wcount - 1) % len(r.window)
	r.window[idx] = complC

	if r.trace != nil {
		r.traceEvent(ev, fetchC, dispC, issueC, complC, lat, flush, stallBucket)
	}
	r.ctr.Instructions++
	return nil
}

// traceEvent appends the lifecycle record of the instruction being
// consumed to the attached pipeline trace.  It lives outside Consume
// so the untraced hot loop does not carry the event's frame.
func (r *Replayer) traceEvent(ev *ReplayEvent, fetchC, dispC, issueC, complC, lat uint64, flush uint8, stall string) {
	meta := ev.Meta
	te := telemetry.TraceEvent{
		Seq:      r.ctr.Instructions,
		PC:       ev.PC,
		Op:       meta.Op.String(),
		Fetch:    fetchC,
		Dispatch: dispC,
		Issue:    issueC,
		Complete: complC,
		Flush:    fcBucket[flush],
		Stall:    stall,
	}
	if meta.Load || meta.Store {
		te.EA = ev.EA
		if meta.Load {
			te.MemLat = lat
		}
	}
	r.trace.Append(te)
}

// chargeStalls attributes delta newly elapsed cycles (the completion
// point moving from oldCompl to oldCompl+delta) to one stall-stack
// bucket and returns the bucket's name.  Priority order: an on-time
// completion means the machine retired at full width; otherwise the
// late instruction's own memory miss, then a busy unit, then a slow
// operand producer (with producer loads traced back to the cache level
// that missed), then a full reorder window, then the front-end redirect
// that delayed its fetch; anything left is base pipeline flow.
func (r *Replayer) chargeStalls(delta, oldCompl, doneC, issueC, readyC, dispC uint64,
	class, blocker isa.Class, blockerMiss, missLevel uint8,
	windowLimited bool, fcause uint8) string {
	bucket, name := &r.stalls.Base, BucketBase
	switch {
	case doneC <= oldCompl:
		bucket, name = &r.stalls.Completion, BucketCompletion
	case missLevel == 2:
		bucket, name = &r.stalls.L2Miss, BucketL2Miss
	case missLevel == 1:
		bucket, name = &r.stalls.L1DMiss, BucketL1DMiss
	case issueC > readyC:
		bucket, name = r.unitBucket(class)
	case readyC > dispC+1:
		switch {
		case blockerMiss == 2:
			bucket, name = &r.stalls.L2Miss, BucketL2Miss
		case blockerMiss == 1:
			bucket, name = &r.stalls.L1DMiss, BucketL1DMiss
		default:
			bucket, name = r.unitBucket(blocker)
		}
	case windowLimited:
		bucket, name = &r.stalls.WindowFull, BucketWindowFull
	case fcause == fcMispredict:
		bucket, name = &r.stalls.MispredictFlush, BucketMispredictFlush
	case fcause == fcTakenBubble:
		bucket, name = &r.stalls.TakenBubble, BucketTakenBubble
	}
	*bucket += delta
	return name
}

// unitBucket maps a functional-unit class to its stall-stack bucket
// (CRU work is counted with the FXUs, as the POWER5 counters do).
func (r *Replayer) unitBucket(class isa.Class) (*uint64, string) {
	switch class {
	case isa.ClassLSU:
		return &r.stalls.LSU, BucketLSU
	case isa.ClassBRU:
		return &r.stalls.BRU, BucketBRU
	default:
		return &r.stalls.FXU, BucketFXU
	}
}

func (r *Replayer) attributeStall(class isa.Class, n uint64) {
	switch class {
	case isa.ClassFXU, isa.ClassCRU:
		r.ctr.StallFXU += n
	case isa.ClassLSU:
		r.ctr.StallLSU += n
	case isa.ClassBRU:
		r.ctr.StallBRU += n
	}
}

// branchTiming charges front-end redirection costs for a resolved
// branch, trains the predictors, and returns the redirect cause the
// branch raised (fcNone when fetch was not disturbed).
func (r *Replayer) branchTiming(ev *ReplayEvent, fetchC, doneC uint64) uint8 {
	r.ctr.Branches++

	mispredicted := false
	if ev.Meta.CondBr {
		r.ctr.CondBranches++
		predTaken := r.pred.Predict(ev.PC)
		r.pred.Update(ev.PC, ev.Taken)
		if predTaken != ev.Taken {
			r.ctr.DirMispredicts++
			mispredicted = true
		}
		if r.profiler != nil {
			r.profiler.OnCondBranch(ev.PC, ev.Taken, mispredicted)
		}
	}

	if ev.Taken {
		r.ctr.TakenBranches++
	}

	switch {
	case mispredicted:
		// Direction mispredict: flush; fetch restarts after resolve.
		r.noteMispredict(ev.PC)
		r.redirect(doneC+uint64(r.cfg.MispredictPenalty), fcMispredict)
		if r.btac != nil && ev.Taken {
			r.btac.Update(ev.PC, ev.Next)
		}
		return fcMispredict
	case ev.Taken:
		// Correctly predicted (or unconditional) taken branch: the
		// POWER5 pays the 2-cycle next-fetch-address bubble unless the
		// BTAC supplies the target.
		bubble := uint64(r.cfg.TakenBranchPenalty)
		if r.btac != nil {
			r.ctr.BTACLookups++
			nia, predict := r.btac.Lookup(ev.PC)
			if r.profiler != nil {
				r.profiler.OnBTAC(ev.PC, predict, predict && nia != ev.Next)
			}
			if predict {
				r.ctr.BTACPredicts++
				if nia == ev.Next {
					r.ctr.BTACCorrect++
					bubble = 0
				} else {
					// Wrong target: the fetch went down a wrong path
					// and is caught at branch execution.
					r.ctr.TgtMispredicts++
					r.noteMispredict(ev.PC)
					r.btac.Update(ev.PC, ev.Next)
					r.redirect(doneC+uint64(r.cfg.MispredictPenalty), fcMispredict)
					return fcMispredict
				}
			}
			r.btac.Update(ev.PC, ev.Next)
		}
		if bubble > 0 {
			r.ctr.TakenBubbles++
			r.redirect(fetchC+1+bubble, fcTakenBubble)
			return fcTakenBubble
		}
	}
	return fcNone
}

// noteMispredict feeds the per-PC mispredict counter when telemetry is
// attached.
func (r *Replayer) noteMispredict(pc int) {
	if r.mispredictPC != nil {
		r.mispredictPC.Add(strconv.Itoa(pc), 1)
	}
}

// redirect stalls instruction fetch until cycle c, remembering why so
// the stall stack can attribute the cycles the delay later costs.
func (r *Replayer) redirect(c uint64, cause uint8) {
	if c > r.fetchCycle {
		if r.histFlush != nil && cause == fcMispredict {
			r.histFlush.Observe(c - r.fetchCycle)
		}
		r.fetchCycle = c
		r.fetchedAt = 0
		r.fetchCause = cause
	}
}
