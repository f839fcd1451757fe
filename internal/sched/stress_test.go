package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
)

// TestSchedStressRace hammers one engine with a small real sweep —
// every application under two variants, with duplicate submissions
// from several goroutines — so `go test -race` (CI's race job) can
// catch shared mutable state anywhere under kernels, core or cpu.
// Determinism is asserted too: every duplicate must observe the exact
// counter set of its first computation.
func TestSchedStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := New(Options{Workers: 4})
	defer e.Close()

	var jobs []Job
	for _, k := range kernels.All() {
		for _, v := range []kernels.Variant{kernels.Branchy, kernels.Combination} {
			jobs = append(jobs, Job{App: k.App, Variant: v, CPU: cpu.POWER5Baseline(), Seed: 1, Scale: 1})
		}
	}

	const dup = 3
	results := make([][]cpu.Report, len(jobs))
	for i := range results {
		results[i] = make([]cpu.Report, dup)
	}
	var wg sync.WaitGroup
	for d := 0; d < dup; d++ {
		for i, j := range jobs {
			d, i, j := d, i, j
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := e.Run(context.Background(), j)
				if err != nil {
					t.Errorf("%s/%s: %v", j.App, j.Variant, err)
					return
				}
				results[i][d] = rep
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, j := range jobs {
		for d := 1; d < dup; d++ {
			if results[i][d] != results[i][0] {
				t.Errorf("%s/%s: duplicate %d diverged", j.App, j.Variant, d)
			}
		}
	}
	if st := e.Stats(); st.Computed != uint64(len(jobs)) {
		t.Errorf("computed %d cells, want %d (stats %+v)", st.Computed, len(jobs), st)
	}
}

// TestSchedStressMixedCancel has goroutines submit the same few cells
// concurrently, half of them giving up at once.  Whatever the
// interleaving, a submission whose context stays live must get the
// result: another caller's cancellation never fails a shared cell.
func TestSchedStressMixedCancel(t *testing.T) {
	e := stubEngine(t, Options{Workers: 2}, func(Job) (cpu.Report, error) {
		return cpu.Report{Counters: cpu.Counters{Cycles: 9}}, nil
	})
	compute := e.compute
	e.compute = func(ctx context.Context, j Job) (JobResult, error) {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return JobResult{}, context.Cause(ctx)
		}
		return compute(ctx, j)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := baseJob()
				j.Seed = int64(i)
				ctx, cancel := context.WithCancel(context.Background())
				f := e.Submit(ctx, j)
				if (g+i)%2 == 0 {
					cancel()
					f.Wait()
					continue
				}
				rep, err := f.Wait()
				cancel()
				if err != nil || rep.Counters.Cycles != 9 {
					t.Errorf("live submitter got %+v, %v", rep, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
