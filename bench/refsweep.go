package main

import (
	"context"
	"runtime"
	"time"

	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/workload"
)

// refSpec is the ROADMAP reference sweep: every application x
// {original, combination} x FXU {2,3,4} x BTAC {off, 8} x the four
// sweep predictors x three kernel seeds (192 points, 24 traces, 576
// replays).
func refSpec(kseeds []int64, eng *sched.Engine, ctx context.Context) harness.SweepSpec {
	return harness.SweepSpec{
		FXUs:        []int{2, 3, 4},
		BTACEntries: []int{0, 8},
		Predictors:  predictorKinds,
		Variants:    []kernels.Variant{kernels.Branchy, kernels.Combination},
		Apps:        workload.Apps(),
		Config:      harness.Config{Scale: 1, Seeds: kseeds, Engine: eng, Context: ctx},
	}
}

// planJobs expands a sweep plan into its per-seed jobs: the grid's, in
// manifest order (point i, seed j at i*len(seeds)+j), and every
// distinct job the sweep computes, baselines included.
func planJobs(plan *harness.SweepPlan) (points, distinct []sched.Job) {
	cfg := plan.Spec.Config
	expand := func(cells []harness.PlanCell) []sched.Job {
		var out []sched.Job
		for _, pc := range cells {
			for _, seed := range cfg.Seeds {
				out = append(out, sched.Job{App: pc.App, Variant: pc.Setup.Variant,
					CPU: pc.Setup.CPU, Seed: seed, Scale: cfg.Scale})
			}
		}
		return out
	}
	points = expand(plan.Points)
	return points, uniqueJobs(append(expand(plan.Baselines), points...))
}

// runRefSweep runs the reference sweep cold, on a fresh engine with no
// disk cache, through harness.RunSweep, as many times as the window
// allows.  A cell is one job (application, variant, configuration,
// seed); its latency is its service time as the engine measured it.
func runRefSweep(r *runner) error {
	plan, err := harness.PlanSweep(refSpec(r.kseeds, nil, nil))
	if err != nil {
		return err
	}
	pointJobs, jobs := planJobs(plan)
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
		spec := refSpec(r.kseeds, eng, ctx)
		runtime.GC() // one measurement must not pay for another's garbage
		end := span(ctx, "bench.ref-sweep")
		c0, t0 := cpuTime(), time.Now()
		m, err := harness.RunSweep(spec)
		wall, cpuS := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		end()
		if err != nil {
			return err
		}
		st, ts := eng.Stats(), eng.TraceStore().Stats()
		for _, p := range m.DegradedPoints() {
			r.led.fail("ref-sweep point %s/%s/%d FXU/BTAC %d/%s: %s %s",
				p.App, p.Variant, p.FXUs, p.BTACEntries, p.Predictor, p.Status, p.Error)
		}
		r.led.ok(len(m.Points) - m.Degraded)
		d, err := manifestDigest(m)
		if err != nil {
			return err
		}
		r.checkDigest("ref-sweep manifest", d, &digest, golden.RefSweep)

		_, costs, err := jobResults(ctx, eng, jobs)
		if err != nil {
			return err
		}
		var total telemetry.StageCost
		for _, c := range costs {
			total.Add(c)
		}
		// Every distinct job is attributed exactly once in the
		// manifest's profile, so the per-job costs must add up to it.
		if m.Profile == nil || total != m.Profile.Aggregate {
			r.led.fail("ref-sweep: per-job costs do not sum to the manifest profile")
		} else {
			r.led.ok(1)
		}
		if i == 0 {
			first = manifestReports(m)
		}
		if !isTraced {
			walls, cpus = append(walls, wall), append(cpus, cpuS)
			lat = append(lat, serviceTimes(costs))
			return nil
		}
		traced = append(traced, wall)
		li := r.schedLayer(costs, st, ts, wall)
		li["harness.warm_rerun_ms"], err = warmRerun(r, eng, spec)
		layerIters = append(layerIters, li)
		return err
	})
	if err != nil {
		return err
	}
	r.verifySample(pointJobs, first, 2)
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

// manifestReports lists the manifest's per-seed results in planJobs
// order.
func manifestReports(m *harness.SweepManifest) []cpu.Report {
	var out []cpu.Report
	for _, p := range m.Points {
		for _, s := range p.Stats.Seeds {
			out = append(out, cpu.Report{Counters: s.Counters, Stalls: s.Stalls})
		}
	}
	return out
}

// warmRerun times a second RunSweep of spec on the engine that already
// computed it; every cell must be a memo hit.
func warmRerun(r *runner, eng *sched.Engine, spec harness.SweepSpec) (float64, error) {
	before := eng.Stats().Computed
	t0 := time.Now()
	m, err := harness.RunSweep(spec)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, err
	}
	if after := eng.Stats().Computed; after != before || m.Degraded != 0 {
		r.led.fail("warm rerun computed %d new jobs, %d points degraded", after-before, m.Degraded)
	} else {
		r.led.ok(1)
	}
	return ms, nil
}

// serviceTimes lists each cell's time on a worker in seconds: its
// submit-to-result time less its queue wait.  Batch workloads submit
// every cell up front, so the wait measures the backlog, not the cell.
func serviceTimes(costs []telemetry.StageCost) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = float64(c.TotalNS-c.QueueNS) / 1e9
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
