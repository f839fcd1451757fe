package main

import (
	"errors"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// spread the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9.5, 3.25, 7}, 2.125, 8.25},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return out
}

// The tail percentile is the highest one with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{100, 90, 90, 10},
		{199, 90, 180, 19},
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{999, 95, 950, 49},
		{20, 50, 10, 10},
		{19, 100, 19, 0}, // too few samples: the maximum, nothing beyond
	} {
		pct, v, beyond := tail(seq(tc.n))
		if pct != tc.pct || v != tc.value || beyond != tc.beyond {
			t.Errorf("tail(1..%d) = p%v %v (%d beyond), want p%v %v (%d beyond)",
				tc.n, pct, v, beyond, tc.pct, tc.value, tc.beyond)
		}
		if beyond != 0 && beyond < minBeyond {
			t.Errorf("tail(1..%d) reports %d samples beyond", tc.n, beyond)
		}
	}
	if p, v, b := tail(nil); p != 0 || v != 0 || b != 0 {
		t.Errorf("tail(nil) = %v %v %v", p, v, b)
	}
}

func TestLedgerAccounting(t *testing.T) {
	var l ledger
	l.ok(3)
	l.fail("point %d degraded", 7)
	l.check(nil)
	l.check(errors.New("mismatch"))
	if l.attempted != 6 || l.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 6 and 2", l.attempted, l.failed)
	}
	if got := l.failedFrac(); got != 2.0/6 {
		t.Errorf("failedFrac = %v", got)
	}
	if len(l.reasons) != 2 || l.reasons[0] != "point 7 degraded" || l.reasons[1] != "mismatch" {
		t.Errorf("reasons = %q", l.reasons)
	}

	defs := []metricDef{{"wall_s", "s", "lower"}}
	res, err := buildResult(defs, map[string]float64{"wall_s": 1.5}, &l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 6 || res.Failed != 2 {
		t.Errorf("result %+v: a failure must make the run incorrect", res)
	}
	var empty ledger
	res, err = buildResult(defs, map[string]float64{"wall_s": 1.5}, &empty)
	if err != nil || !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Errorf("empty ledger: %+v, %v; want correct with attempted 1", res, err)
	}
}

func TestKernelSeeds(t *testing.T) {
	if got := kernelSeeds(1); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("kernelSeeds(1) = %v, want [1 2 3]", got)
	}
	if got := kernelSeeds(2); got[0] != 4 || got[2] != 6 {
		t.Errorf("kernelSeeds(2) = %v, want [4 5 6]", got)
	}
	for _, s := range []int64{0, -5, 1 << 40} {
		for _, k := range kernelSeeds(s) {
			if k < 0 {
				t.Errorf("kernelSeeds(%d) has negative seed %d", s, k)
			}
		}
	}
}
