package kernels

import (
	"errors"
	"fmt"
	"testing"

	"bioperf5/internal/cpu"
	"bioperf5/internal/machine"
	"bioperf5/internal/trace"
)

const replayLimit = 500_000_000

// coupledReport runs the live path: functional machine, cache
// annotation and timing model stepping together, exactly what `-trace
// off` executes.
func coupledReport(t *testing.T, k *Kernel, v Variant, cfg cpu.Config) cpu.Report {
	t.Helper()
	run, err := k.NewRun(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateObserved(k, v, run, cfg, replayLimit, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLiveRecordsMatchTrace is the trace subsystem's core invariant,
// checked at the record stream.  The live path and replay hand the
// timing model events built by the same helper from records, so they
// agree exactly when the records do: for every (app, variant) cell,
// the live annotated records (PC, Next, Taken, EA, miss level) and the
// load latencies must equal what the decoded trace yields.
func TestLiveRecordsMatchTrace(t *testing.T) {
	for _, k := range All() {
		for _, v := range allVariants() {
			tr, err := CaptureTrace(k, v, 1, 1, replayLimit)
			if err != nil {
				t.Fatalf("%s/%s: capture: %v", k.App, v, err)
			}
			run, err := k.NewRun(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			ann := trace.NewAnnotator()
			it := tr.Iter()
			var n uint64
			var live trace.Record
			_, err = Stream(k, v, run, replayLimit, func(d machine.DynInst) error {
				ann.Annotate(&live, d)
				if !it.Next() {
					return fmt.Errorf("trace ends after %d records: %v", n, it.Err())
				}
				if got := *it.Rec(); got != live {
					return fmt.Errorf("record %d: decoded %+v, live %+v", n, got, live)
				}
				n++
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", k.App, v, err)
			}
			if it.Next() || it.Err() != nil {
				t.Errorf("%s/%s: trace runs past the %d live records (err %v)", k.App, v, n, it.Err())
			}
			if got, want := tr.Meta.LoadLat, ann.LoadLat(); got != want {
				t.Errorf("%s/%s: trace load latencies %v, live %v", k.App, v, got, want)
			}
		}
	}
}

// TestReplayEquivalenceSeedsAndScale spot-checks that the invariant
// holds off the default (seed, scale) coordinate too.
func TestReplayEquivalenceSeedsAndScale(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.POWER5Baseline()
	cfg.UseBTAC = true
	for _, coord := range []struct {
		seed  int64
		scale int
	}{{2, 1}, {7, 1}, {1, 2}} {
		tr, err := CaptureTrace(k, Branchy, coord.seed, coord.scale, replayLimit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReplayTrace(k, Branchy, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := k.NewRun(coord.seed, coord.scale)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SimulateObserved(k, Branchy, run, cfg, replayLimit, Observer{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d scale %d: replay diverges from coupled run", coord.seed, coord.scale)
		}
	}
}

// TestReplayFileRoundTrip replays from a trace that went through the
// durable file encoding, so the on-disk tier is covered by the same
// equivalence bar as the in-memory one.
func TestReplayFileRoundTrip(t *testing.T) {
	k, err := ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureTrace(k, Branchy, 1, 1, replayLimit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.DecodeFile(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.POWER5Baseline()
	got, err := ReplayTrace(k, Branchy, decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := coupledReport(t, k, Branchy, cfg); got != want {
		t.Error("file-round-tripped trace diverges from coupled run")
	}
}

// TestReplayRejectsForeignProgram: a trace pinned to a different
// compilation must be rejected as corrupt, not replayed against the
// wrong static metadata.
func TestReplayRejectsForeignProgram(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureTrace(k, Branchy, 1, 1, replayLimit)
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.ProgHash = "0000000000000000"
	if _, err := ReplayTrace(k, Branchy, tr, cpu.POWER5Baseline()); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("foreign program hash accepted: %v", err)
	}
}

// TestReplayRejectsOutOfRangePC: a record whose PC exceeds the program
// must fail as corrupt instead of indexing out of bounds.
func TestReplayRejectsOutOfRangePC(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileCached(k, Branchy)
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	b.Add(trace.Record{PC: len(c.Meta) + 5})
	bad := b.Finish(trace.Meta{ProgHash: c.Hash})
	if _, err := ReplayTrace(k, Branchy, bad, cpu.POWER5Baseline()); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("out-of-range PC accepted: %v", err)
	}
}

// TestTraceKeySharedAcrossTimingConfigs pins the cache-keying contract:
// the trace key must not move with anything the timing sweep varies,
// and must move with everything the dynamic stream depends on.
func TestTraceKeySharedAcrossTimingConfigs(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	key, err := TraceKey(k, Branchy, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same cell, any timing config: the key is computed from
	// (kernel, variant, seed, scale) only, so the predictor x FXU x BTAC
	// factorial shares one capture per seed by construction.
	again, err := TraceKey(k, Branchy, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if key.Hash() != again.Hash() {
		t.Error("same cell produced different trace keys")
	}
	other, err := TraceKey(k, Combination, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if key.Hash() == other.Hash() {
		t.Error("different variants share a trace key")
	}
}

// TestCompileCachedMemoizes: the per-(kernel, variant) compilation is
// computed once and shared; ByApp returns fresh Kernel values, so the
// memo must key on names, not pointers.
func TestCompileCachedMemoizes(t *testing.T) {
	k1, err := ByApp("Hmmer")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ByApp("Hmmer")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := CompileCached(k1, Branchy)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCached(k2, Branchy)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("same (kernel, variant) compiled twice")
	}
	if len(c1.Meta) != c1.Prog.Len() {
		t.Errorf("replay metadata covers %d of %d instructions", len(c1.Meta), c1.Prog.Len())
	}
}
