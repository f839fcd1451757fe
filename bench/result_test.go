package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"bioperf5/internal/server"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// Every name the benchmark emits is well formed, within the contract's
// limits, and published in BENCHMARK.json with the same unit and
// direction, in the same order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	if err := checkCatalogue(endToEnd, perLayer()); err != nil {
		t.Fatal(err)
	}
	loose := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	bj := loadBenchmarkJSON(t)

	var got []metricDef
	for _, m := range bj.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	compareDefs(t, "end_to_end", got, endToEnd)
	got = nil
	for _, m := range bj.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
	}
	compareDefs(t, "per_layer", got, perLayer())
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !loose.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
	}

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
}

func compareDefs(t *testing.T, kind string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, m := range want {
			b.WriteString(`    {"name": "` + m.Name + `", "unit": "` + m.Unit + `", "better": "` + m.Better + `"},` + "\n")
		}
		t.Logf("the benchmark's %s catalogue:\n%s", kind, b.String())
	}
}

func TestCheckCatalogueRejects(t *testing.T) {
	ok := metricDef{"wall_s", "s", "lower"}
	for name, layer := range map[string][]metricDef{
		"bad character": {{"sched work", "s", "lower"}},
		"leading dot":   {{".wall", "s", "lower"}},
		"duplicate":     {ok},
	} {
		if err := checkCatalogue([]metricDef{ok}, layer); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	many := make([]metricDef, maxEndToEnd+1)
	for i := range many {
		many[i] = metricDef{"m" + strings.Repeat("x", i), "s", "lower"}
	}
	if err := checkCatalogue(many, nil); err == nil {
		t.Error("more than 16 end-to-end metrics accepted")
	}
}

// A result carries exactly the catalogue: a missing or an extra metric
// is a benchmark bug, not a quiet gap.
func TestBuildResultRejectsGaps(t *testing.T) {
	defs := []metricDef{{"wall_s", "s", "lower"}, {"cpu_s", "s", "lower"}}
	var l ledger
	if _, err := buildResult(defs, map[string]float64{"wall_s": 1}, &l); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := buildResult(defs, map[string]float64{"wall_s": 1, "cpu_s": 2, "rss": 3}, &l); err == nil {
		t.Error("metric outside the catalogue accepted")
	}
	res, err := buildResult(defs, map[string]float64{"wall_s": 1, "cpu_s": 2}, &l)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeResult(&out, defs, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", last)
	}
}

// answer fakes the server's response to every request of a block, as
// a correct server would answer it.
func answer(reqs []*cellReq) []outcome {
	outs := make([]outcome, len(reqs))
	for i, q := range reqs {
		r := &server.CellResponse{App: q.req.App, Variant: q.req.Variant, Seeds: q.req.Seeds,
			Key: strings.Join([]string{q.req.App, q.req.Variant, q.req.Predictor}, "/")}
		switch q.class {
		case classCached:
			r = q.ref.resp
			r2 := *r
			r2.Coalesced, r2.TraceHit = 1, true
			r = &r2
		case classReplay:
			r.TraceHit = true
		}
		outs[i] = outcome{status: 200, resp: r}
	}
	return outs
}

// The serve-cells request sequence depends on the seed alone, holds
// the fixed class shares in every block, and never replays a timing
// configuration twice on one trace.
func TestMixerDeterministicShares(t *testing.T) {
	gen := func(seed int64) []string {
		m := newMixer(seed, kernelSeeds(seed))
		var l ledger
		w := m.warmup(kernelSeeds(seed)[0])
		m.settle(w, answer(w), &l)
		var seqs []string
		seen := map[string]bool{}
		for b := 0; b < 40; b++ {
			reqs, err := m.block()
			if err != nil {
				t.Fatal(err)
			}
			var n [3]int
			for _, q := range reqs {
				n[q.class]++
				js, _ := json.Marshal(q.req)
				seqs = append(seqs, string(js))
				if q.class == classReplay {
					if seen[string(js)] {
						t.Fatalf("replay %s issued twice", js)
					}
					seen[string(js)] = true
				}
			}
			if n != [3]int{cachedPerBlock, 4 * replayPerApp, 4} || len(reqs) != blockSize {
				t.Fatalf("block %d has class counts %v", b, n)
			}
			m.settle(reqs, answer(reqs), &l)
		}
		if l.failed != 0 {
			t.Fatalf("settle failed: %v", l.reasons)
		}
		return seqs
	}
	a, b, c := gen(3), gen(3), gen(4)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("same seed, different request sequences")
	}
	if strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Error("different seeds, same request sequence")
	}
}

// A response whose cache fields contradict the request class fails.
func TestSettleRejectsMisclassified(t *testing.T) {
	m := newMixer(1, kernelSeeds(1))
	w := m.warmup(1)
	outs := answer(w)
	outs[0].resp.TraceHit = true // a cold cell claims it replayed
	outs[1] = outcome{status: 429}
	var l ledger
	if rej := m.settle(w, outs, &l); rej != 1 {
		t.Errorf("rejected = %d, want 1", rej)
	}
	if l.failed != 2 || l.attempted != len(w) {
		t.Errorf("ledger %d/%d, want 2 failed of %d", l.failed, l.attempted, len(w))
	}
}
