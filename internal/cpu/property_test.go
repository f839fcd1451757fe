package cpu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"bioperf5/internal/bprof"
	"bioperf5/internal/branch"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// randomPredictor draws a direction-predictor spec from the zoo with
// random geometry.
func randomPredictor(rng *rand.Rand) string {
	switch rng.Intn(7) {
	case 0:
		return "static-taken"
	case 1:
		return "static-not-taken"
	case 2:
		return fmt.Sprintf("bimodal:bits=%d", 1+rng.Intn(14))
	case 3:
		return fmt.Sprintf("gshare:bits=%d,hist=%d", 1+rng.Intn(14), rng.Intn(16))
	case 4:
		return fmt.Sprintf("tournament:bits=%d,hist=%d", 1+rng.Intn(14), rng.Intn(16))
	case 5:
		return fmt.Sprintf("perceptron:weights=%d,hist=%d", 1+rng.Intn(512), 1+rng.Intn(32))
	}
	lo := 1 + rng.Intn(8)
	return fmt.Sprintf("tage:tables=%d,bits=%d,tag=%d,hist=%d..%d",
		1+rng.Intn(6), 4+rng.Intn(9), 4+rng.Intn(9), lo, lo+rng.Intn(64-lo+1))
}

// randomConfig draws a valid core configuration: widths, unit counts,
// window, penalties, a zoo predictor and (sometimes) a BTAC geometry.
func randomConfig(rng *rand.Rand) cpu.Config {
	cfg := cpu.Config{
		FetchWidth:         1 + rng.Intn(8),
		DispatchWidth:      1 + rng.Intn(8),
		CompleteWidth:      1 + rng.Intn(8),
		NumFXU:             1 + rng.Intn(4),
		NumLSU:             1 + rng.Intn(4),
		NumBRU:             1 + rng.Intn(2),
		NumCRU:             1 + rng.Intn(2),
		Window:             1 + rng.Intn(256),
		FrontendDepth:      rng.Intn(12),
		MispredictPenalty:  rng.Intn(32),
		TakenBranchPenalty: rng.Intn(4),
		Predictor:          randomPredictor(rng),
		Extensions:         true,
	}
	if rng.Intn(2) == 0 {
		cfg.UseBTAC = true
		thr := 1 + rng.Intn(3)
		cfg.BTAC = branch.BTACConfig{Entries: 1 << rng.Intn(7), Threshold: thr, MaxScore: thr + rng.Intn(3)}
	}
	return cfg
}

// replayHooked replays tr through a timing model with every hook
// attached and returns its report and branch profile.
func replayHooked(t *testing.T, c *kernels.Compiled, tr *trace.Trace, cfg cpu.Config) (cpu.Report, *bprof.Profile) {
	t.Helper()
	r, err := cpu.NewReplayer(cfg, tr.Meta.LoadLat)
	if err != nil {
		t.Fatal(err)
	}
	prof := bprof.New()
	reg := telemetry.NewRegistry()
	r.SetTrace(telemetry.NewTraceBuffer(64))
	r.SetBranchProfiler(prof)
	r.AttachTelemetry(reg)
	var ev cpu.ReplayEvent
	for it := tr.Iter(); it.Next(); {
		if !ev.Set(c.Meta, it.Rec()) {
			t.Fatalf("trace PC %d outside the program", it.Rec().PC)
		}
		if err := r.Consume(&ev); err != nil {
			t.Fatal(err)
		}
	}
	r.PublishTo(reg)
	if got := reg.Snapshot(1).Counters["cpu.Cycles"]; got != r.Counters().Cycles {
		t.Errorf("published cycles %d, counters %d", got, r.Counters().Cycles)
	}
	return r.Report(), prof
}

// TestTimingPropertiesRandomConfigs checks the timing model's
// invariants over random core configurations, on real kernel traces:
// the stall stack sums to the cycle count, per-site branch profiles
// sum to the aggregate counters, attaching every hook leaves the
// report unchanged, the live path equals replay, and replay is
// deterministic.
func TestTimingPropertiesRandomConfigs(t *testing.T) {
	type cell struct {
		app string
		v   kernels.Variant
	}
	cells := []cell{{"Clustalw", kernels.Branchy}, {"Hmmer", kernels.Combination}, {"Blast", kernels.CompISel}}
	rng := rand.New(rand.NewSource(1))
	for i, cl := range cells {
		k, err := kernels.ByApp(cl.app)
		if err != nil {
			t.Fatal(err)
		}
		c, err := kernels.CompileCached(k, cl.v)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := kernels.CaptureTrace(k, cl.v, int64(i+1), 1, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 5; draw++ {
			cfg := randomConfig(rng)
			name := fmt.Sprintf("%s/%s/%+v", cl.app, cl.v, cfg)

			rep, err := kernels.ReplayTrace(k, cl.v, tr, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := rep.Stalls.Total(), rep.Counters.Cycles; got != want {
				t.Errorf("%s: stall stack sums to %d, cycles %d", name, got, want)
			}
			again, err := kernels.ReplayTrace(k, cl.v, tr, cfg)
			if err != nil || again != rep {
				t.Errorf("%s: replay not deterministic (%v)", name, err)
			}

			hooked, prof := replayHooked(t, c, tr, cfg)
			if hooked != rep {
				t.Errorf("%s: attaching hooks changed the report\n hooked: %+v\n plain:  %+v", name, hooked, rep)
			}
			exec, miss, wrong := prof.Totals()
			ctr := rep.Counters
			if exec != ctr.CondBranches || miss != ctr.DirMispredicts || wrong != ctr.TgtMispredicts {
				t.Errorf("%s: profile sums %d/%d/%d, counters %d/%d/%d", name,
					exec, miss, wrong, ctr.CondBranches, ctr.DirMispredicts, ctr.TgtMispredicts)
			}

			run, err := k.NewRun(int64(i+1), 1)
			if err != nil {
				t.Fatal(err)
			}
			live, err := kernels.SimulateObserved(k, cl.v, run, cfg, 1<<30, kernels.Observer{})
			if err != nil {
				t.Fatalf("%s: live: %v", name, err)
			}
			if live != rep {
				t.Errorf("%s: live path diverges from replay\n live:   %+v\n replay: %+v", name, live, rep)
			}
		}
	}
}
