package core

import (
	"math"
	"testing"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
)

func TestSetupBuilders(t *testing.T) {
	s := Baseline()
	if s.Variant != kernels.Branchy || s.CPU.UseBTAC || s.CPU.NumFXU != 2 {
		t.Fatalf("baseline = %+v", s)
	}
	s2 := s.WithVariant(kernels.Combination).WithBTAC().WithFXUs(4)
	if s2.Variant != kernels.Combination || !s2.CPU.UseBTAC || s2.CPU.NumFXU != 4 {
		t.Errorf("built setup = %+v", s2)
	}
	// The original is unchanged (value semantics).
	if s.CPU.UseBTAC || s.CPU.NumFXU != 2 {
		t.Error("WithX mutated the receiver")
	}
}

// liveCounters simulates s on k over seeds on the live path (TraceOff)
// and returns the aggregate counters.
func liveCounters(t *testing.T, k *kernels.Kernel, s Setup, seeds ...int64) cpu.Counters {
	t.Helper()
	resp, err := Simulate(Request{App: k.App, Variant: s.Variant, Seeds: seeds, Scale: 1, CPU: s.CPU, Trace: TraceOff})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Aggregate.Counters
}

func TestSimulateAggregatesSeeds(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	one := liveCounters(t, k, Baseline(), 1)
	two := liveCounters(t, k, Baseline(), 1, 2)
	if two.Instructions <= one.Instructions || two.Cycles <= one.Cycles {
		t.Errorf("aggregation: one=%d instr, two=%d instr", one.Instructions, two.Instructions)
	}
	if _, err := Simulate(Request{App: k.App, CPU: Baseline().CPU, Trace: TraceOff}); err == nil {
		t.Error("empty seed list accepted")
	}
}

func TestImprovedSetupBeatsBaseline(t *testing.T) {
	// The paper's headline: predication + BTAC + FXUs beats baseline.
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	base := liveCounters(t, k, Baseline(), 1, 2)
	full := liveCounters(t, k, Baseline().WithVariant(kernels.Combination).WithBTAC().WithFXUs(4), 1, 2)
	if full.Cycles >= base.Cycles {
		t.Errorf("improved core %d cycles, baseline %d", full.Cycles, base.Cycles)
	}
	if full.IPC() <= base.IPC() {
		t.Errorf("improved IPC %.2f not above baseline %.2f", full.IPC(), base.IPC())
	}
}

func TestRunIntervals(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := RunIntervals(k, Baseline(), 3, 1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 3 {
		t.Fatalf("only %d intervals", len(ivs))
	}
	for i, iv := range ivs {
		if iv.IPC <= 0 || iv.IPC > 5 {
			t.Errorf("interval %d: IPC %.2f implausible", i, iv.IPC)
		}
		if iv.MispredictRate < 0 || iv.MispredictRate > 1 {
			t.Errorf("interval %d: mispredict rate %.2f", i, iv.MispredictRate)
		}
		if i > 0 && iv.Instructions <= ivs[i-1].Instructions {
			t.Error("intervals not monotone in instructions")
		}
	}
	if _, err := RunIntervals(k, Baseline(), 3, 1, 0); err == nil {
		t.Error("zero interval length accepted")
	}
}

// TestFigure2Correlation verifies the paper's Figure 2 observation in
// our data: interval IPC moves inversely with the interval mispredict
// rate for the Clustalw kernel.
func TestFigure2Correlation(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := RunIntervals(k, Baseline(), 5, 2, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 5 {
		t.Skipf("not enough intervals (%d) for a correlation", len(ivs))
	}
	var mx, my float64
	for _, iv := range ivs {
		mx += iv.MispredictRate
		my += iv.IPC
	}
	mx /= float64(len(ivs))
	my /= float64(len(ivs))
	var sxy, sxx, syy float64
	for _, iv := range ivs {
		dx, dy := iv.MispredictRate-mx, iv.IPC-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		t.Skip("degenerate variance")
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r >= 0 {
		t.Errorf("IPC vs mispredict-rate correlation = %.2f, want negative", r)
	}
}

func TestRunSampledApproximatesFullRun(t *testing.T) {
	k, err := kernels.ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	full := liveCounters(t, k, Baseline(), 4)
	sampled, err := RunSampled(k, Baseline(), 4, 1, SampleConfig{Detail: 10_000, Skip: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.TotalInstr != full.Instructions {
		t.Errorf("sampled executed %d instructions, full %d", sampled.TotalInstr, full.Instructions)
	}
	if sampled.Detailed.Instructions >= sampled.TotalInstr {
		t.Error("sampling simulated everything in detail")
	}
	fullIPC := full.IPC()
	estIPC := sampled.EstimatedIPC()
	if relErr := math.Abs(estIPC-fullIPC) / fullIPC; relErr > 0.25 {
		t.Errorf("sampled IPC %.3f vs full %.3f (err %.0f%%)", estIPC, fullIPC, 100*relErr)
	}
	if _, err := RunSampled(k, Baseline(), 4, 1, SampleConfig{}); err == nil {
		t.Error("zero detail window accepted")
	}
}

func TestSampledDetailOnlyEqualsFull(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	full := liveCounters(t, k, Baseline(), 6)
	sampled, err := RunSampled(k, Baseline(), 6, 1, SampleConfig{Detail: 1 << 40, Skip: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Detailed.Cycles != full.Cycles {
		t.Errorf("detail-only sampling: %d cycles vs full %d", sampled.Detailed.Cycles, full.Cycles)
	}
}
