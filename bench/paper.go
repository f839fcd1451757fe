package main

import (
	"context"
	"runtime"
	"time"

	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/workload"
)

// paperSetups are the distinct machine setups the experiments submit
// to the engine (Table I/II and Figures 3-6).  The benchmark checks
// that the engine computed exactly these jobs.
func paperSetups() []core.Setup {
	b := core.Baseline()
	comb := b.WithVariant(kernels.Combination)
	out := []core.Setup{b}
	for v := kernels.Branchy + 1; v < kernels.NumVariants; v++ {
		out = append(out, b.WithVariant(v)) // Figure 3, Table II
	}
	return append(out,
		b.WithBTAC(), comb.WithBTAC(), // Figure 4
		b.WithFXUs(3), b.WithFXUs(4), comb.WithFXUs(3), comb.WithFXUs(4), // Figure 5
		comb.WithBTAC().WithFXUs(4), // Figure 6
	)
}

func paperJobs(kseeds []int64) []sched.Job {
	var out []sched.Job
	for _, k := range kernels.All() {
		for _, s := range paperSetups() {
			for _, seed := range kseeds {
				out = append(out, sched.Job{App: k.App, Variant: s.Variant, CPU: s.CPU, Seed: seed, Scale: 1})
			}
		}
	}
	return uniqueJobs(out)
}

// paperPass is one regeneration of all eight experiments.
type paperPass struct {
	tables    []*harness.Table
	seconds   map[string]float64 // per experiment
	wall, cpu float64
}

// runPaper regenerates every experiment through harness.ByID(id).Run
// under harness.DefaultConfig() with the run's kernel seeds, on eng.
func (r *runner) runPaper(ctx context.Context, eng *sched.Engine) (paperPass, error) {
	cfg := harness.DefaultConfig()
	cfg.Seeds, cfg.Engine, cfg.Context = r.kseeds, eng, ctx
	p := paperPass{seconds: map[string]float64{}}
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	for _, id := range experimentIDs {
		e, err := harness.ByID(id)
		if err != nil {
			return p, err
		}
		end := span(ctx, "bench.harness."+id)
		s := time.Now()
		t, err := e.Run(cfg)
		p.seconds[id] = time.Since(s).Seconds()
		end()
		if err != nil {
			r.led.fail("experiment %s: %v", id, err)
			continue
		}
		r.led.ok(1)
		p.tables = append(p.tables, t)
	}
	p.wall, p.cpu = time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	return p, nil
}

// runPaperFigures regenerates the paper on a fresh engine per
// iteration.  A cell is one engine job; Figures 1 and 2 run outside the
// engine and count only in the wall and CPU time.
func runPaperFigures(r *runner) error {
	jobs := paperJobs(r.kseeds)
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	var (
		walls, cpus []float64
		lat         [][]float64
		traced      []float64
		layerIters  []map[string]float64
		digest      string
		first       []cpu.Report // iteration 0's results, re-simulated after the window
	)
	err = r.iterate(func(i int, isTraced bool) error {
		eng := sched.New(sched.Options{})
		defer eng.Close()
		ctx := r.ctx(isTraced)
		p, err := r.runPaper(ctx, eng)
		if err != nil {
			return err
		}
		st, ts := eng.Stats(), eng.TraceStore().Stats()
		if int(st.Computed) != len(jobs) {
			r.led.fail("paper-figures computed %d jobs, the benchmark enumerates %d", st.Computed, len(jobs))
		}
		r.checkDigest("paper-figures tables", tablesDigest(p.tables), &digest, golden.PaperTables)
		reps, costs, err := jobResults(ctx, eng, jobs)
		if err != nil {
			return err
		}
		if i == 0 {
			first = reps
		}
		if !isTraced {
			walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
			lat = append(lat, serviceTimes(costs))
			return nil
		}
		traced = append(traced, p.wall)
		li := r.schedLayer(costs, st, ts, p.wall)
		for id, s := range p.seconds {
			li["harness."+id+"_s"] = s
		}
		li["harness.warm_rerun_ms"], err = warmRerun(r, eng, paperWarmSpec(r.kseeds, eng, ctx))
		layerIters = append(layerIters, li)
		return err
	})
	if err != nil {
		return err
	}
	r.verifySample(jobs, first, 2)
	r.prov.Notes["cells_per_iteration"] = len(jobs)
	if r.traced {
		r.medians(layerIters)
		return r.overhead(walls, traced)
	}
	r.wallCPU(walls, cpus)
	r.cellLatencies(lat)
	r.e2e["cells_per_s"] = float64(len(jobs)*len(walls)) / sum(walls)
	return nil
}

// paperWarmSpec is the part of the design space Figures 4-5 already
// computed: {original, combination} x FXU {2,3,4}, no BTAC, default
// predictor.
func paperWarmSpec(kseeds []int64, eng *sched.Engine, ctx context.Context) harness.SweepSpec {
	return harness.SweepSpec{
		FXUs:        []int{2, 3, 4},
		BTACEntries: []int{0},
		Variants:    []kernels.Variant{kernels.Branchy, kernels.Combination},
		Apps:        workload.Apps(),
		Config:      harness.Config{Scale: 1, Seeds: kseeds, Engine: eng, Context: ctx},
	}
}

// harnessProbe times each experiment once on a fresh engine, for
// workloads that do not run the paper themselves.
func (r *runner) harnessProbe() error {
	eng := sched.New(sched.Options{})
	defer eng.Close()
	p, err := r.runPaper(r.ctx(true), eng)
	if err != nil {
		return err
	}
	for id, s := range p.seconds {
		r.layer["harness."+id+"_s"] = s
	}
	return nil
}
