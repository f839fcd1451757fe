package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"bioperf5/internal/branch"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/trace"
)

// The layer suite times one call into each layer's public functions per
// application, on the original binary at the first kernel seed, and
// reports host nanoseconds per dynamic instruction (per branch for the
// predictors).  Each figure is the median of layerReps repetitions.

const (
	layerReps = 3
	stepLimit = 500_000_000 // the simulator's per-invocation bound
)

// predictorKinds are the direction predictors the reference sweep
// varies, walked alone over a trace's conditional branches.
var predictorKinds = []string{"tournament", "gshare", "perceptron", "tage"}

// layerTimes is one application's median time per layer operation.
type layerTimes struct {
	insns, takenBranches, condBranches float64
	bytes                              float64
	op                                 map[string]float64 // seconds
}

// Layer operations of the suite.
const (
	opExec       = "exec"
	opCapture    = "capture"
	opDecode     = "decode"
	opConsume    = "consume"
	opReplay     = "replay"
	opReplayTAGE = "replay_tage"
	opCoupled    = "coupled"
	opBTAC       = "btac"
)

// replayResidualBound bounds |replay - decode - consume| as a share of
// replay: the replay loop is a decode walk feeding Consume, so the two
// parts must explain it up to the cost of building each event.
const replayResidualBound = 0.35

// measureLayers runs the layer suite and, for layers the workload does
// not exercise itself, a small probe, then checks the decomposition.
// A traced run reports every per-layer metric, so the harness and
// server layers of a workload that does not run them come from a
// probe; the provenance names them under "probed_layers".
func (r *runner) measureLayers() error {
	if err := r.timed("layer_suite", r.layerSuite); err != nil {
		return err
	}
	var probed []string
	if _, ok := r.layer["harness.fig1_s"]; !ok {
		if err := r.timed("harness_probe", r.harnessProbe); err != nil {
			return err
		}
		probed = append(probed, "harness.<id>_s")
	}
	if _, ok := r.layer["server.cached_ms"]; !ok {
		if err := r.timed("server_probe", r.serverProbe); err != nil {
			return err
		}
		probed = append(probed, "server.*")
	}
	r.prov.Notes["probed_layers"] = probed
	return nil
}

// timed runs one phase of the run and notes how long it took.
func (r *runner) timed(phase string, f func() error) error {
	t0 := time.Now()
	err := f()
	r.prov.Notes[phase+"_s"] = time.Since(t0).Seconds()
	return err
}

func (r *runner) layerSuite() error {
	ctx := r.ctx(true)
	seed := r.kseeds[0]
	cfg := core.Baseline().CPU
	total := &layerTimes{op: map[string]float64{}}
	for _, k := range kernels.All() {
		lt, err := measureApp(ctx, k, seed, cfg, &r.led)
		if err != nil {
			return fmt.Errorf("%s: %w", k.App, err)
		}
		r.setRates("."+k.App, lt)
		total.insns += lt.insns
		total.takenBranches += lt.takenBranches
		total.condBranches += lt.condBranches
		total.bytes += lt.bytes
		for op, s := range lt.op {
			total.op[op] += s
		}
	}
	r.setRates("", total)
	r.prov.Samples["layer_reps"] = layerReps
	r.prov.Notes["layer_insns"] = total.insns

	// Self-check: replay is a decode walk feeding Consume.
	replay := r.layer["cpu.replay_ns_per_insn"]
	res := replay - r.layer["trace.decode_ns_per_insn"] - r.layer["cpu.consume_ns_per_insn"]
	r.layer["cpu.replay_residual_ns_per_insn"] = res
	if math.Abs(res) > replayResidualBound*replay {
		r.led.fail("replay decomposition: replay %.1f - decode - consume = %.1f ns/insn, beyond %.0f%% of replay",
			replay, res, 100*replayResidualBound)
	} else {
		r.led.ok(1)
	}
	return nil
}

// setRates stores one application's (or the aggregate's) layer rates
// under the metric suffix sfx.
func (r *runner) setRates(sfx string, lt *layerTimes) {
	perInsn := func(op string) float64 { return lt.op[op] * 1e9 / lt.insns }
	perCond := func(op string) float64 { return lt.op[op] * 1e9 / lt.condBranches }
	set := func(name string, v float64) { r.layer[name+sfx] = v }
	set("machine.exec_ns_per_insn", perInsn(opExec))
	set("trace.capture_ns_per_insn", perInsn(opCapture))
	set("trace.annotate_ns_per_insn", perInsn(opCapture)-perInsn(opExec))
	set("trace.bytes_per_insn", lt.bytes/lt.insns)
	set("trace.decode_ns_per_insn", perInsn(opDecode))
	for _, p := range predictorKinds {
		set("branch."+p+".ns_per_branch", perCond(p))
	}
	set("branch.btac.ns_per_branch", lt.op[opBTAC]*1e9/lt.takenBranches)
	set("cpu.replay_ns_per_insn", perInsn(opReplay))
	set("cpu.replay_tage_ns_per_insn", perInsn(opReplayTAGE))
	set("cpu.consume_ns_per_insn", perInsn(opConsume))
	// The pipeline alone: Consume minus the default predictor's walk.
	set("cpu.pipeline_ns_per_insn", perInsn(opConsume)-perInsn(cpu.POWER5Baseline().Predictor))
	set("cpu.coupled_ns_per_insn", perInsn(opCoupled))
}

// measureApp times every layer operation on one application and checks
// that the replayed, consumed and coupled reports agree.
func measureApp(ctx context.Context, k *kernels.Kernel, seed int64, cfg cpu.Config, led *ledger) (*layerTimes, error) {
	v := kernels.Branchy
	c, err := kernels.CompileCached(k, v)
	if err != nil {
		return nil, err
	}
	samples := map[string][]float64{}
	timeOp := func(op string, f func() error) error {
		runtime.GC() // one measurement must not pay for another's garbage
		end := span(ctx, "bench.layer."+op)
		start := time.Now()
		err := f()
		samples[op] = append(samples[op], time.Since(start).Seconds())
		end()
		return err
	}

	var (
		t      *trace.Trace
		events []cpu.ReplayEvent
		conds  []branchRec // conditional branches: direction predictors
		taken  []branchRec // taken branches: the BTAC
		reps   = map[string]cpu.Report{}
		lt     = &layerTimes{op: map[string]float64{}}
		sink   int
	)
	for rep := 0; rep < layerReps; rep++ {
		run, err := k.NewRun(seed, 1)
		if err != nil {
			return nil, err
		}
		var steps uint64
		if err := timeOp(opExec, func() (err error) {
			steps, err = kernels.Execute(k, v, run, stepLimit)
			return err
		}); err != nil {
			return nil, err
		}
		if err := timeOp(opCapture, func() (err error) {
			t, err = kernels.CaptureTrace(k, v, seed, 1, stepLimit)
			return err
		}); err != nil {
			return nil, err
		}
		if t.Meta.Records != steps {
			return nil, fmt.Errorf("capture recorded %d instructions, execution ran %d", t.Meta.Records, steps)
		}
		if err := timeOp(opDecode, func() error {
			it := t.Iter()
			for it.Next() {
				sink += it.Rec().PC
			}
			return it.Err()
		}); err != nil {
			return nil, err
		}
		if events == nil {
			if events, err = decodeEvents(t, c.Meta); err != nil {
				return nil, err
			}
			conds, taken = branchRecords(events)
			lt.insns = float64(len(events))
			lt.bytes = float64(len(t.Payload))
			lt.takenBranches = float64(len(taken))
			lt.condBranches = float64(len(conds))
		}
		rp, err := cpu.NewReplayer(cfg, t.Meta.LoadLat)
		if err != nil {
			return nil, err
		}
		if err := timeOp(opConsume, func() error {
			for i := range events {
				if err := rp.Consume(&events[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		reps[opConsume] = rp.Report()
		for _, kind := range predictorKinds {
			p, err := branch.FromSpec(kind)
			if err != nil {
				return nil, err
			}
			timeOp(kind, func() error {
				for _, b := range conds {
					if p.Predict(b.pc) != b.taken {
						sink++
					}
					p.Update(b.pc, b.taken)
				}
				return nil
			})
		}
		btac := branch.NewBTAC(branch.DefaultBTACConfig())
		timeOp(opBTAC, func() error {
			for _, b := range taken {
				if nia, ok := btac.Lookup(b.pc); ok && nia != b.next {
					sink++
				}
				btac.Update(b.pc, b.next)
			}
			return nil
		})
		if err := timeOp(opReplay, func() (err error) {
			reps[opReplay], err = kernels.ReplayTrace(k, v, t, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		tage := cfg
		tage.Predictor = "tage"
		if err := timeOp(opReplayTAGE, func() (err error) {
			_, err = kernels.ReplayTrace(k, v, t, tage)
			return err
		}); err != nil {
			return nil, err
		}
		run, err = k.NewRun(seed, 1)
		if err != nil {
			return nil, err
		}
		if err := timeOp(opCoupled, func() (err error) {
			reps[opCoupled], err = kernels.SimulateObserved(k, v, run, cfg, stepLimit, kernels.Observer{})
			return err
		}); err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(reps[opReplay], reps[opCoupled]) || !reflect.DeepEqual(reps[opConsume], reps[opCoupled]) {
			led.fail("%s: replayed, consumed and coupled reports differ", k.App)
		} else {
			led.ok(1)
		}
	}
	for op, s := range samples {
		lt.op[op] = median(s)
	}
	_ = sink
	return lt, nil
}

// branchRec is one branch outcome as the predictors see it.
type branchRec struct {
	pc, next int
	taken    bool
}

// branchRecords extracts the conditional branches (what a direction
// predictor is asked about) and the taken branches (what the BTAC is
// looked up and trained on), so the predictor walks time the
// predictors alone.
func branchRecords(events []cpu.ReplayEvent) (conds, taken []branchRec) {
	for i := range events {
		ev := &events[i]
		b := branchRec{pc: ev.PC, next: ev.Next, taken: ev.Taken}
		if ev.Meta.CondBr {
			conds = append(conds, b)
		}
		if ev.Meta.Branch && ev.Taken {
			taken = append(taken, b)
		}
	}
	return conds, taken
}

// decodeEvents decodes a trace into replay events up front, so Consume
// can be timed without the decoder.
func decodeEvents(t *trace.Trace, meta []cpu.InsMeta) ([]cpu.ReplayEvent, error) {
	events := make([]cpu.ReplayEvent, 0, t.Meta.Records)
	it := t.Iter()
	for it.Next() {
		rec := it.Rec()
		if rec.PC < 0 || rec.PC >= len(meta) {
			return nil, fmt.Errorf("trace PC %d outside the program", rec.PC)
		}
		events = append(events, cpu.ReplayEvent{
			Meta: &meta[rec.PC], PC: rec.PC, Next: rec.Next,
			Taken: rec.Taken, MissLevel: rec.MissLevel,
		})
	}
	return events, it.Err()
}
