// Command bench is the repository benchmark.  It runs one named
// workload through the public entry points of harness, sched, core and
// server for a fixed time, checks that the simulated results are
// correct, and prints every metric by name with its unit; the last
// line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics.  A
// traced run (--trace 1) reports the per-layer metrics: it times calls
// into each layer's public functions from this package and records the
// program's own spans.  All timings are host time; simulated
// statistics are deterministic and serve as correctness checks only.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload ref-sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"bioperf5/internal/kernels"
	"bioperf5/internal/telemetry"
)

// benchWorkload is one named traffic mix of the benchmark.
type benchWorkload struct {
	name string
	// inputs lists the (application, kernel seed) inputs set-up
	// generates.
	inputs func(kseeds []int64) []input
	// serves reports whether set-up starts the HTTP server.
	serves bool
	// run measures the workload for the runner's window.
	run func(r *runner) error
}

type input struct {
	app  string
	seed int64
}

var workloads = []*benchWorkload{
	{name: "ref-sweep", inputs: allInputs, run: runRefSweep},
	{name: "paper-figures", inputs: allInputs, run: runPaperFigures},
	{name: "serve-cells", inputs: warmupInputs, serves: true, run: runServeCells},
}

func workloadByName(name string) (*benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// kernelSeeds derives the three kernel input seeds of a benchmark seed:
// seed 1 gives {1, 2, 3}, seed 2 gives {4, 5, 6}, and any seed maps to
// non-negative kernel seeds.
func kernelSeeds(seed int64) []int64 {
	k := (seed - 1) % 1_000_000
	if k < 0 {
		k += 1_000_000
	}
	return []int64{3*k + 1, 3*k + 2, 3*k + 3}
}

func allInputs(kseeds []int64) []input {
	var out []input
	for _, k := range kernels.All() {
		for _, s := range kseeds {
			out = append(out, input{k.App, s})
		}
	}
	return out
}

func warmupInputs(kseeds []int64) []input {
	var out []input
	for _, k := range kernels.All() {
		out = append(out, input{k.App, kseeds[0]})
	}
	return out
}

// runner carries one run's settings and what it measured.
type runner struct {
	w      *benchWorkload
	seed   int64
	kseeds []int64
	window time.Duration
	traced bool
	tr     *telemetry.Tracer // nil in an untraced run
	svc    *service          // serve-cells only

	setups []setupSample
	led    ledger
	prov   *provenance
	e2e    map[string]float64
	layer  map[string]float64
}

// iterate calls iter until the window is spent: at least once, and a
// new iteration starts only while at least half of one still fits, so
// the iteration count does not flip between runs of equal speed.  A
// traced run alternates untraced and traced iterations, starting
// untraced, and runs at least one of each so the tracing overhead can
// be measured.
func (r *runner) iterate(iter func(i int, traced bool) error) error {
	start, steal := time.Now(), stealTime()
	for i := 0; ; i++ {
		if err := iter(i, r.traced && i%2 == 1); err != nil {
			return err
		}
		elapsed := time.Since(start)
		mean := elapsed / time.Duration(i+1)
		if elapsed+mean/2 >= r.window && (!r.traced || i >= 1) {
			r.prov.Notes["window_s"] = elapsed.Seconds()
			r.prov.Notes["window_steal_s"] = (stealTime() - steal).Seconds()
			return nil
		}
	}
}

// ctx returns the context an iteration runs under: with the run's
// tracer when the iteration is traced.
func (r *runner) ctx(traced bool) context.Context {
	if traced {
		return telemetry.WithTracer(context.Background(), r.tr)
	}
	return context.Background()
}

// span records a benchmark-side span around a call into a layer when
// ctx carries a tracer; the returned func ends it.
func span(ctx context.Context, name string) func() {
	_, sp := telemetry.StartSpan(ctx, name)
	return sp.End
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "ref-sweep", "workload to run")
	seed := fs.Int64("seed", 1, "benchmark seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	probe := fs.Bool("setup-probe", false, "run set-up once, print its timing as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := checkCatalogue(endToEnd, perLayer()); err != nil {
		fmt.Fprintln(stderr, "bench: catalogue:", err)
		return 1
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *probe {
		s, svc, err := setup(w, kernelSeeds(*seed), nil)
		if err != nil {
			fmt.Fprintln(stderr, "bench: setup:", err)
			return 1
		}
		if svc != nil {
			svc.close()
		}
		if err := json.NewEncoder(stdout).Encode(s); err != nil {
			return 1
		}
		return 0
	}

	r := &runner{
		w: w, seed: *seed, kseeds: kernelSeeds(*seed),
		window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		prov:   newProvenance(w.name, *seed, *trace == 1),
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
	}
	if r.traced {
		r.tr = telemetry.NewTracer(0, nil)
	}
	if err := r.setUp(); err != nil {
		fmt.Fprintln(stderr, "bench: setup:", err)
		return 1
	}
	err = w.run(r)
	if r.svc != nil {
		r.svc.close()
	}
	if err == nil {
		err = r.finishSetUp()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	values := r.e2e
	if r.traced {
		if err := r.measureLayers(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: layers: %v\n", w.name, err)
			return 1
		}
		defs, values = perLayer(), r.layer
		r.writeSpans(stderr)
	}
	res, err := buildResult(defs, values, &r.led)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	r.prov.FailedFrac = r.led.failedFrac()
	r.prov.Failures = r.led.reasons
	pb, err := json.Marshal(map[string]any{"provenance": r.prov})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(pb))
	if err := writeResult(stdout, defs, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		for _, why := range r.led.reasons {
			fmt.Fprintln(stderr, "bench: FAILED:", why)
		}
		return 1
	}
	return 0
}

// setupSample is one timed set-up.
type setupSample struct {
	TotalS   float64 `json:"total_s"`
	CompileS float64 `json:"compile_s"`
}

// setupProbes is how many extra set-ups run, each in a fresh process
// (the compile cache is per process), so setup_s is a median: one
// set-up takes tens of milliseconds and a single one is noisy.  Half
// run before the window and half after it, because the host's speed
// drifts over seconds and set-ups taken back to back share one state
// of it.
const setupProbes = 16

// setup compiles every kernel under every predication variant through
// kernels.CompileCached, generates the workload's inputs and, for
// serve-cells, starts the server.
func setup(w *benchWorkload, kseeds []int64, tr *telemetry.Tracer) (setupSample, *service, error) {
	start := time.Now()
	for _, k := range kernels.All() {
		for v := kernels.Branchy; v < kernels.NumVariants; v++ {
			if _, err := kernels.CompileCached(k, v); err != nil {
				return setupSample{}, nil, err
			}
		}
	}
	compiled := time.Since(start)
	for _, in := range w.inputs(kseeds) {
		k, err := kernels.ByApp(in.app)
		if err != nil {
			return setupSample{}, nil, err
		}
		if _, err := k.NewRun(in.seed, 1); err != nil {
			return setupSample{}, nil, err
		}
	}
	var svc *service
	if w.serves {
		var err error
		if svc, err = startService(tr); err != nil {
			return setupSample{}, nil, err
		}
	}
	return setupSample{TotalS: time.Since(start).Seconds(), CompileS: compiled.Seconds()}, svc, nil
}

// setUp runs the first half of the set-up probes in child processes,
// then the run's own set-up.
func (r *runner) setUp() error {
	if err := r.probeSetups(setupProbes / 2); err != nil {
		return err
	}
	s, svc, err := setup(r.w, r.kseeds, r.tr)
	if err != nil {
		return err
	}
	r.svc = svc
	r.setups = append(r.setups, s)
	return nil
}

// finishSetUp runs the other half of the set-up probes after the
// window and records setup_s and kernels.compile_s as medians.
func (r *runner) finishSetUp() error {
	if err := r.probeSetups(setupProbes - setupProbes/2); err != nil {
		return err
	}
	var total, compile []float64
	for _, s := range r.setups {
		total = append(total, s.TotalS)
		compile = append(compile, s.CompileS)
	}
	r.e2e["setup_s"] = median(total)
	r.layer["kernels.compile_s"] = median(compile)
	r.prov.Samples["setup"] = len(total)
	r.prov.Notes["setup_s_samples"] = total
	return nil
}

// probeSetups times n set-ups, each in a fresh child process.
func (r *runner) probeSetups(n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--setup-probe", "--workload", r.w.name,
			"--seed", strconv.FormatInt(r.seed, 10))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		var s setupSample
		if err := json.Unmarshal(out.Bytes(), &s); err != nil {
			return fmt.Errorf("set-up probe output: %w", err)
		}
		r.setups = append(r.setups, s)
	}
	return nil
}

// cellLatencies records cell_p50_ms and cell_tail_ms from per-cell
// latencies in seconds, grouped into equal-sized groups (an iteration
// of a batch workload, a fixed number of blocks of serve-cells): each
// group gives a p50 and a tail, and the run reports their medians.
// Equal groups keep the tail at one percentile however many groups a
// run completes.
func (r *runner) cellLatencies(groups [][]float64) {
	var p50s, tails []float64
	for _, g := range groups {
		ms := make([]float64, len(g))
		for i, l := range g {
			ms[i] = l * 1000
		}
		pct, v, beyond := tail(ms)
		p50s, tails = append(p50s, median(ms)), append(tails, v)
		r.prov.Notes["cell_tail_percentile"] = pct
		r.prov.Notes["cell_tail_beyond"] = beyond
		r.prov.Notes["cell_group_size"] = len(ms)
	}
	r.e2e["cell_p50_ms"] = median(p50s)
	r.e2e["cell_tail_ms"] = median(tails)
	r.prov.Samples["cell_groups"] = len(groups)
}

// wallCPU records wall_s and cpu_s as medians over iterations, the
// in-run spread of the walls, and the memory high-water mark.
func (r *runner) wallCPU(walls, cpus []float64) {
	r.e2e["wall_s"] = median(walls)
	r.e2e["cpu_s"] = median(cpus)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.prov.Samples["iterations"] = len(walls)
	r.prov.Notes["wall_s_iqr_frac"] = spread(walls)
	r.prov.Notes["wall_s_samples"] = walls
	r.prov.Notes["cpu_s_samples"] = cpus
}

// overhead records telemetry.trace_overhead_frac from the wall times
// of untraced and traced iterations.
func (r *runner) overhead(untraced, traced []float64) error {
	if len(untraced) == 0 || len(traced) == 0 {
		return errors.New("a traced run needs untraced and traced iterations")
	}
	u := median(untraced)
	r.layer["telemetry.trace_overhead_frac"] = (median(traced) - u) / u
	r.prov.Samples["untraced_iterations"] = len(untraced)
	r.prov.Samples["traced_iterations"] = len(traced)
	return nil
}

// writeSpans writes the traced run's spans as JSONL under
// .bench_build/spans, for Perfetto or `bioperf5 spans`.
func (r *runner) writeSpans(stderr io.Writer) {
	dir := filepath.Join(".bench_build", "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	err := os.MkdirAll(dir, 0o755)
	var f *os.File
	if err == nil {
		f, err = os.Create(path)
	}
	if err == nil {
		err = r.tr.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: spans not written:", err)
		return
	}
	r.prov.Notes["spans"] = path
	r.prov.Samples["spans"] = r.tr.Len()
	if d := r.tr.Dropped(); d > 0 {
		r.led.fail("tracer dropped %d spans", d)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
