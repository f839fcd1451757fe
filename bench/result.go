package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
)

// metricDef is one metric of the benchmark's catalogue, the list
// BENCHMARK.json publishes.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run of every workload.  All timings are host time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cell_p50_ms", "ms", "lower"},
	{"cell_tail_ms", "ms", "lower"},
	{"cells_per_s", "1/s", "higher"},
}

// appSuffixes are the per-application suffixes of the ns/insn layer
// metrics; the empty suffix is the instruction-weighted aggregate.
var appSuffixes = []string{"", ".Blast", ".Clustalw", ".Fasta", ".Hmmer"}

// perAppMetrics are the layer rates measured per application by the
// layer suite (layers.go).
var perAppMetrics = []metricDef{
	{"machine.exec_ns_per_insn", "ns/insn", "lower"},
	{"trace.capture_ns_per_insn", "ns/insn", "lower"},
	{"trace.annotate_ns_per_insn", "ns/insn", "lower"},
	{"trace.bytes_per_insn", "B/insn", "lower"},
	{"trace.decode_ns_per_insn", "ns/insn", "lower"},
	{"branch.tournament.ns_per_branch", "ns/branch", "lower"},
	{"branch.gshare.ns_per_branch", "ns/branch", "lower"},
	{"branch.perceptron.ns_per_branch", "ns/branch", "lower"},
	{"branch.tage.ns_per_branch", "ns/branch", "lower"},
	{"branch.btac.ns_per_branch", "ns/branch", "lower"},
	{"cpu.replay_ns_per_insn", "ns/insn", "lower"},
	{"cpu.replay_tage_ns_per_insn", "ns/insn", "lower"},
	{"cpu.consume_ns_per_insn", "ns/insn", "lower"},
	{"cpu.pipeline_ns_per_insn", "ns/insn", "lower"},
	{"cpu.coupled_ns_per_insn", "ns/insn", "lower"},
}

// experimentIDs are the paper's eight experiments in paper order.
var experimentIDs = []string{"fig1", "table1", "fig2", "fig3", "table2", "fig4", "fig5", "fig6"}

// perLayer returns the traced run's metrics in catalogue order.
func perLayer() []metricDef {
	out := []metricDef{{"kernels.compile_s", "s", "lower"}}
	for _, m := range perAppMetrics {
		for _, sfx := range appSuffixes {
			out = append(out, metricDef{m.Name + sfx, m.Unit, m.Better})
		}
	}
	out = append(out,
		metricDef{"cpu.replay_residual_ns_per_insn", "ns/insn", "lower"},
		metricDef{"trace.store.captures", "count", "lower"},
		metricDef{"trace.store.hits", "count", "higher"},
		metricDef{"trace.store.bytes", "B", "lower"},
		metricDef{"sched.work_s", "s", "lower"},
		metricDef{"sched.queue_wait_s", "s", "lower"},
		metricDef{"sched.store_wait_s", "s", "lower"},
		metricDef{"sched.parallel_efficiency", "frac", "higher"},
		metricDef{"sched.computed", "count", "lower"},
		metricDef{"sched.memory_hits", "count", "higher"},
		metricDef{"sched.replay_share", "frac", "lower"},
		metricDef{"sched.accounting_residual_frac", "frac", "lower"},
	)
	for _, id := range experimentIDs {
		out = append(out, metricDef{"harness." + id + "_s", "s", "lower"})
	}
	out = append(out,
		metricDef{"harness.warm_rerun_ms", "ms", "lower"},
		metricDef{"server.cached_ms", "ms", "lower"},
		metricDef{"server.replay_ms", "ms", "lower"},
		metricDef{"server.cold_ms", "ms", "lower"},
		metricDef{"server.rejected", "count", "lower"},
		metricDef{"telemetry.trace_overhead_frac", "frac", "lower"},
	)
	return out
}

// Catalogue limits from the benchmark contract.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkCatalogue reports a malformed catalogue: a bad or repeated
// name, or too many metrics of one kind.
func checkCatalogue(e2e, layer []metricDef) error {
	if len(e2e) > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics exceed %d", len(e2e), maxEndToEnd)
	}
	if len(layer) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics exceed %d", len(layer), maxPerLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), e2e...), layer...) {
		if !metricName.MatchString(m.Name) {
			return fmt.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// ledger counts the operations a run attempted and the ones that
// failed: degraded sweep points, experiment errors, non-200 responses,
// misclassified requests, correctness mismatches and broken
// self-checks.  Any failure makes the run incorrect.
type ledger struct {
	attempted int
	failed    int
	reasons   []string
}

// ok records n successful operations.
func (l *ledger) ok(n int) { l.attempted += n }

// fail records one failed operation and why.
func (l *ledger) fail(format string, args ...any) {
	l.attempted++
	l.failed++
	if len(l.reasons) < 20 {
		l.reasons = append(l.reasons, fmt.Sprintf(format, args...))
	}
}

// check records one operation that failed when err is non-nil.
func (l *ledger) check(err error) {
	if err != nil {
		l.fail("%v", err)
		return
	}
	l.ok(1)
}

func (l *ledger) failedFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult pairs measured values with the catalogue's units.  Every
// catalogue metric must have been measured and nothing else may be
// reported; a gap is a benchmark bug and is returned as an error.
func buildResult(defs []metricDef, values map[string]float64, l *ledger) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	var missing, extra []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, name := range sortedKeys(values) {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		return res, fmt.Errorf("metrics missing %v, not in the catalogue %v", missing, extra)
	}
	res.Attempted = max(l.attempted, 1)
	res.Failed = l.failed
	res.Correct = l.failed == 0
	return res, nil
}

// writeResult prints one human-readable line per metric, then the
// result object as the last line.
func writeResult(w io.Writer, defs []metricDef, res result) error {
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-42s %14.6g %s\n", d.Name, m.Value, d.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
