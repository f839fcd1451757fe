package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"

	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// golden holds digests of the simulated outputs at the default seed.
// They change only when the simulated science changes.
//
//go:embed golden.json
var goldenJSON []byte

type goldenDigests struct {
	Seed        int64  `json:"seed"`
	RefSweep    string `json:"ref_sweep_manifest_sha256"`
	PaperTables string `json:"paper_figures_tables_sha256"`
}

func loadGolden() (goldenDigests, error) {
	var g goldenDigests
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// checkDigest compares a digest with the golden one at the default
// seed, and with the run's first iteration at any seed.
func (r *runner) checkDigest(what, got string, first *string, golden string) {
	r.prov.Notes[strings.ReplaceAll(what, " ", "_")+"_sha256"] = got
	switch {
	case *first == "":
		*first = got
	case got != *first:
		r.led.fail("%s digest changed between iterations: %s then %s", what, *first, got)
		return
	}
	g, err := loadGolden()
	if err != nil {
		r.led.fail("golden digests: %v", err)
		return
	}
	if r.seed == g.Seed && golden != "" && got != golden {
		r.led.fail("%s digest %s differs from the golden %s", what, got, golden)
		return
	}
	r.led.ok(1)
}

// manifestDigest hashes a sweep manifest without its operational
// fields (timings, scheduler and cluster counters), which vary from
// run to run while everything simulated must not.
func manifestDigest(m *harness.SweepManifest) (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return "", err
	}
	for _, k := range []string{"profile", "scheduler", "cluster", "elapsed_ms"} {
		delete(doc, k)
	}
	if b, err = json.Marshal(doc); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// tablesDigest hashes rendered experiment tables.  Figure 1 is left out:
// its shares are measured host time.
func tablesDigest(tables []*harness.Table) string {
	h := sha256.New()
	for _, t := range tables {
		if t.ID == "fig1" {
			continue
		}
		h.Write([]byte(t.Render()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// uniqueJobs drops repeated jobs (equal content hashes), keeping order.
func uniqueJobs(jobs []sched.Job) []sched.Job {
	seen := map[string]bool{}
	var out []sched.Job
	for _, j := range jobs {
		h := j.Hash()
		if !seen[h] {
			seen[h] = true
			out = append(out, j)
		}
	}
	return out
}

// jobResults re-submits jobs the engine has already computed.  Each
// submission must be a memo hit; its future carries the result and the
// stage cost of the computation it joined, which is how the benchmark
// sees per-cell costs the workload's entry point does not return.
func jobResults(ctx context.Context, eng *sched.Engine, jobs []sched.Job) ([]cpu.Report, []telemetry.StageCost, error) {
	reps := make([]cpu.Report, len(jobs))
	costs := make([]telemetry.StageCost, len(jobs))
	for i, j := range jobs {
		f, hit := eng.SubmitTracked(ctx, j)
		rep, err := f.Wait()
		if err != nil {
			return nil, nil, fmt.Errorf("job %s/%s seed %d: %w", j.App, j.Variant, j.Seed, err)
		}
		if !hit {
			return nil, nil, fmt.Errorf("job %s/%s seed %d was not computed by the workload", j.App, j.Variant, j.Seed)
		}
		reps[i], costs[i] = rep, f.Cost()
	}
	return reps, costs, nil
}

// verifySample re-simulates a seeded sample of jobs, perApp per
// application, on the coupled path (core.Simulate with tracing off);
// counters and stall stacks must equal the workload's results exactly.
func (r *runner) verifySample(jobs []sched.Job, got []cpu.Report, perApp int) {
	rng := rand.New(rand.NewSource(r.seed))
	byApp := map[string][]int{}
	for i, j := range jobs {
		byApp[j.App] = append(byApp[j.App], i)
	}
	checked := 0
	for _, app := range sortedKeys(byApp) {
		idx := byApp[app]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx[:min(perApp, len(idx))] {
			r.led.check(resimulate(jobs[i], got[i]))
			checked++
		}
	}
	r.prov.Samples["resimulated"] += checked
}

// resimulate runs one job on the coupled path and compares it with want.
func resimulate(j sched.Job, want cpu.Report) error {
	resp, err := core.Simulate(core.Request{
		App: j.App, Variant: j.Variant, Seeds: []int64{j.Seed},
		Scale: j.Scale, CPU: j.CPU, Trace: core.TraceOff,
	})
	if err != nil {
		return fmt.Errorf("re-simulating %s/%s seed %d: %w", j.App, j.Variant, j.Seed, err)
	}
	if !reflect.DeepEqual(resp.Aggregate, want) {
		return fmt.Errorf("%s/%s seed %d (%s): coupled re-simulation differs from the workload's result",
			j.App, j.Variant, j.Seed, j.CPU.Predictor)
	}
	return nil
}

// accountingBound bounds the share of the summed per-cell wall time
// that work, queue wait and store wait may leave unexplained.
const accountingBound = 0.05

// schedLayer derives the sched and trace-store layer metrics of one
// traced iteration from its per-cell stage costs, the engine and store
// counters, and its wall time, and checks the accounting.
func (r *runner) schedLayer(costs []telemetry.StageCost, st sched.Stats, ts trace.Stats, wall float64) map[string]float64 {
	var sum telemetry.StageCost
	for _, c := range costs {
		sum.Add(c)
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	work := sec(sum.CompileNS + sum.CaptureNS + sum.ReplayNS + sum.SimNS)
	queue, store, total := sec(sum.QueueNS), sec(sum.CacheNS), sec(sum.TotalNS)
	out := map[string]float64{
		"sched.work_s":              work,
		"sched.queue_wait_s":        queue,
		"sched.store_wait_s":        store,
		"sched.parallel_efficiency": work / (wall * float64(st.Workers)),
		"sched.computed":            float64(st.Computed),
		"sched.memory_hits":         float64(st.MemoryHits),
		"sched.replay_share":        sec(sum.ReplayNS) / work,
		"trace.store.captures":      float64(ts.Captures),
		"trace.store.hits":          float64(ts.MemoryHits),
		"trace.store.bytes":         float64(ts.Bytes),
	}
	resid := (work + queue + store - total) / total
	out["sched.accounting_residual_frac"] = resid
	if math.Abs(resid) > accountingBound {
		r.led.fail("sched accounting: work %.3fs + queue %.3fs + store %.3fs vs per-cell total %.3fs (residual %.1f%%)",
			work, queue, store, total, 100*resid)
	} else {
		r.led.ok(1)
	}
	return out
}

// medians folds per-iteration layer values into the run's layer
// metrics, one median per name.
func (r *runner) medians(iters []map[string]float64) {
	vals := map[string][]float64{}
	for _, it := range iters {
		for k, v := range it {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		r.layer[k] = median(vs)
	}
}
