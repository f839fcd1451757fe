package trace

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"bioperf5/internal/fault"
)

func testKey(i int) Key {
	return Key{App: "Fasta", Variant: "original", Seed: int64(i), Scale: 1,
		ProgHash: "abc"}
}

// testTrace builds a trace of roughly n payload bytes answering testKey(i).
func testTrace(i, n int) *Trace {
	var b Builder
	for pc := 0; len(b.payload) < n; pc++ {
		b.Add(Record{PC: pc, HasEA: true, EA: uint64(pc * 64)})
	}
	k := testKey(i)
	return b.Finish(Meta{App: k.App, Variant: k.Variant, Seed: k.Seed,
		Scale: k.Scale, ProgHash: k.ProgHash})
}

func TestStoreGetOrCapture(t *testing.T) {
	s := NewStore(StoreOptions{})
	var captures atomic.Int64
	capture := func() (*Trace, error) {
		captures.Add(1)
		return testTrace(1, 100), nil
	}
	tr, hit, err := s.GetOrCapture(context.Background(), testKey(1), capture)
	if err != nil || hit || tr == nil {
		t.Fatalf("first call = (%v, %v, %v), want fresh capture", tr, hit, err)
	}
	tr2, hit, err := s.GetOrCapture(context.Background(), testKey(1), capture)
	if err != nil || !hit || tr2 != tr {
		t.Fatalf("second call = (%p vs %p, %v, %v), want memory hit", tr2, tr, hit, err)
	}
	if captures.Load() != 1 {
		t.Errorf("captured %d times, want 1", captures.Load())
	}
	st := s.Stats()
	if st.Captures != 1 || st.MemoryHits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreCaptureErrorNotCached(t *testing.T) {
	s := NewStore(StoreOptions{})
	var calls atomic.Int64
	_, _, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		calls.Add(1)
		return nil, errors.New("transient")
	})
	if err == nil {
		t.Fatal("capture error swallowed")
	}
	if _, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		calls.Add(1)
		return testTrace(1, 10), nil
	}); err != nil || hit {
		t.Fatalf("retry = (hit=%v, %v), want fresh capture", hit, err)
	}
	if calls.Load() != 2 {
		t.Errorf("capture called %d times, want 2 (errors must not be cached)", calls.Load())
	}
}

// TestStoreSingleFlight hammers one key from many goroutines: exactly
// one capture runs, every other caller coalesces onto it as a hit.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(StoreOptions{})
	var captures atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	var misses atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
				captures.Add(1)
				<-release
				return testTrace(1, 10), nil
			})
			if err != nil {
				t.Error(err)
			}
			if !hit {
				misses.Add(1)
			}
		}()
	}
	// Let the flight register before releasing the capture.  The other
	// goroutines either wait on it or hit memory afterwards; none may
	// start a second capture.
	for s.Stats().Captures == 0 && captures.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if captures.Load() != 1 {
		t.Errorf("captured %d times, want 1", captures.Load())
	}
	if misses.Load() != 1 {
		t.Errorf("%d callers report a miss, want exactly the capturing one", misses.Load())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	one := testTrace(1, 1000)
	budget := 3 * one.SizeBytes()
	s := NewStore(StoreOptions{Budget: budget})
	for i := 1; i <= 5; i++ {
		i := i
		if _, _, err := s.GetOrCapture(context.Background(), testKey(i), func() (*Trace, error) {
			return testTrace(i, 1000), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Bytes() > budget {
		t.Errorf("store holds %d bytes over the %d budget", s.Bytes(), budget)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions past the byte budget")
	}
	// The oldest keys were evicted, the newest survive.
	if _, ok := s.Get(context.Background(), testKey(1)); ok {
		t.Error("oldest trace still resident past the budget")
	}
	if _, ok := s.Get(context.Background(), testKey(5)); !ok {
		t.Error("newest trace evicted")
	}
}

func TestStoreKeepsNewestOverBudget(t *testing.T) {
	s := NewStore(StoreOptions{Budget: 1}) // every trace exceeds this
	if _, _, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 1000), nil
	}); err != nil {
		t.Fatal(err)
	}
	// The sole resident trace must not be evicted by its own install:
	// that would force a recapture on every request (livelock).
	if _, ok := s.Get(context.Background(), testKey(1)); !ok {
		t.Fatal("newest trace evicted by its own install")
	}
}

func TestStoreDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(StoreOptions{Dir: dir})
	if _, _, err := s1.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats after capture = %+v", st)
	}

	// A second store over the same directory must load from disk, not
	// capture.
	s2 := NewStore(StoreOptions{Dir: dir})
	tr, hit, err := s2.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return nil, errors.New("should have been a disk hit")
	})
	if err != nil || !hit {
		t.Fatalf("disk tier = (hit=%v, %v)", hit, err)
	}
	if tr.Meta.Seed != 1 {
		t.Errorf("disk-loaded meta = %+v", tr.Meta)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Captures != 0 {
		t.Errorf("stats after disk hit = %+v", st)
	}
}

// TestStoreDiskCorruptionFallsBackToCapture flips one byte of the
// stored trace file: the checksum must catch it, the file must be
// removed, and the store must fall back to a fresh capture.
func TestStoreDiskCorruptionFallsBackToCapture(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(StoreOptions{Dir: dir})
	if _, _, err := s1.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testKey(1).Hash()+".trace")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var captures atomic.Int64
	s2 := NewStore(StoreOptions{Dir: dir})
	_, hit, err := s2.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		captures.Add(1)
		return testTrace(1, 100), nil
	})
	if err != nil || hit {
		t.Fatalf("corrupt file served: (hit=%v, %v)", hit, err)
	}
	if captures.Load() != 1 {
		t.Errorf("capture ran %d times, want 1", captures.Load())
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The recapture healed the file: a third store disk-hits again.
	s3 := NewStore(StoreOptions{Dir: dir})
	if _, ok := s3.Get(context.Background(), testKey(1)); !ok {
		t.Error("entry not healed after corruption recapture")
	}
	if st := s3.Stats(); st.DiskHits != 1 || st.Corrupt != 0 {
		t.Errorf("stats after heal = %+v", st)
	}
}

// TestStoreDiskKeyMismatchRejected copies a valid trace file to another
// key's address: the embedded meta no longer answers that key, so it
// must be treated as corrupt.
func TestStoreDiskKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(StoreOptions{Dir: dir})
	if _, _, err := s1.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, testKey(1).Hash()+".trace")
	dst := filepath.Join(dir, testKey(2).Hash()+".trace")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(StoreOptions{Dir: dir})
	_, hit, err := s2.GetOrCapture(context.Background(), testKey(2), func() (*Trace, error) {
		return testTrace(2, 100), nil
	})
	if err != nil || hit {
		t.Fatalf("mismatched file served: (hit=%v, %v)", hit, err)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStorePutReplaces(t *testing.T) {
	s := NewStore(StoreOptions{})
	s.Put(testKey(1), testTrace(1, 100))
	bigger := testTrace(1, 500)
	s.Put(testKey(1), bigger)
	got, ok := s.Get(context.Background(), testKey(1))
	if !ok || got != bigger {
		t.Fatal("Put did not replace the stored trace")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after replacing one key", s.Len())
	}
	if s.Bytes() != bigger.SizeBytes() {
		t.Errorf("Bytes = %d, want %d (old size must be released)", s.Bytes(), bigger.SizeBytes())
	}
}

func TestStoreNoStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	for i := 1; i <= 4; i++ {
		s.Put(testKey(i), testTrace(i, 100))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".trace" {
			t.Errorf("stray file in trace dir: %s", ent.Name())
		}
	}
	if len(entries) != 4 {
		t.Errorf("%d files on disk, want 4", len(entries))
	}
}

func TestStoreStatsJSONShape(t *testing.T) {
	// Stats is part of the sweep manifest surface; keep the field set
	// stable.
	st := Stats{Captures: 1, MemoryHits: 2, DiskHits: 3, DiskWrites: 4,
		Corrupt: 5, Evictions: 6, RemoteHits: 9, RemotePuts: 10, Faults: 11, Bytes: 7, Entries: 8}
	got := fmt.Sprintf("%+v", st)
	want := "{Captures:1 MemoryHits:2 DiskHits:3 DiskWrites:4 Corrupt:5 Evictions:6 RemoteHits:9 RemotePuts:10 Faults:11 Bytes:7 Entries:8}"
	if got != want {
		t.Errorf("Stats shape changed: %s", got)
	}
}

func TestStoreSiteTraceInjectionTearsWriteAndHeals(t *testing.T) {
	dir := t.TempDir()
	// Rate-1 SiteTrace corruption: every disk write is torn after
	// landing.
	s := NewStore(StoreOptions{Dir: dir, Injector: &fault.Plan{TraceCorruptRate: 1}})
	tr, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) { return testTrace(1, 200), nil })
	if err != nil || hit || tr == nil {
		t.Fatalf("capture = (%v, %v, %v)", tr, hit, err)
	}
	if s.Stats().Faults != 1 {
		t.Fatalf("injected faults = %d, want 1", s.Stats().Faults)
	}
	// The torn file must not decode.
	path := filepath.Join(dir, testKey(1).Hash()+".trace")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile(b); err == nil {
		t.Fatal("torn trace file still decodes")
	}
	// This store still serves from memory, untroubled.
	if _, ok := s.Get(context.Background(), testKey(1)); !ok {
		t.Fatal("in-memory tier lost the trace")
	}
	// The next process detects the damage and recaptures.
	s2 := NewStore(StoreOptions{Dir: dir})
	var captures atomic.Int64
	tr2, hit, err := s2.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		captures.Add(1)
		return testTrace(1, 200), nil
	})
	if err != nil || hit || tr2 == nil || captures.Load() != 1 {
		t.Fatalf("heal = (%v, %v, %v), captures %d; want fresh recapture", tr2, hit, err, captures.Load())
	}
	if s2.Stats().Corrupt != 1 {
		t.Errorf("corrupt detections = %d, want 1", s2.Stats().Corrupt)
	}
	// The healed file round-trips.
	b2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile(b2); err != nil {
		t.Errorf("healed file does not decode: %v", err)
	}
}

func TestStoreNoInjectorNoMangle(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	s.Put(testKey(2), testTrace(2, 100))
	b, err := os.ReadFile(filepath.Join(dir, testKey(2).Hash()+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile(b); err != nil {
		t.Errorf("clean write does not decode: %v", err)
	}
}
