package trace

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bioperf5/internal/durable"
	"bioperf5/internal/fault"
	"bioperf5/internal/telemetry"
)

// RemoteTier is the /v1/traces blob tier.  With StoreOptions.Upstream
// set, the store probes a peer's /v1/traces endpoint after a local
// disk miss and pushes fresh captures back, so one node's functional
// execution is every node's timing replay.  Traces are larger than
// result entries (2 bytes/instruction at scale 1) but still transfer
// in well under the timeout on any sane link.
var RemoteTier = durable.Tier{
	Path:        "/v1/traces/",
	ContentType: "application/octet-stream",
	MaxBytes:    64 << 20,
	Timeout:     30 * time.Second,
	Metric:      "trace.remote",
}

// DefaultBudget is the in-memory byte budget of a Store when none is
// configured: enough for hundreds of scale-1 kernel traces.
const DefaultBudget = int64(256 << 20)

// StoreOptions configures a Store.  The zero value is usable: default
// byte budget, no disk tier, a private telemetry registry.
type StoreOptions struct {
	// Budget bounds the in-memory tier in bytes; values <= 0 mean
	// DefaultBudget.  Least-recently-used traces are evicted past it
	// (the newest trace is always kept, even when it alone exceeds the
	// budget — evicting it would livelock a capture loop).
	Budget int64
	// Dir, when non-empty, adds a checksummed on-disk tier under that
	// directory so captures survive across processes.  Corrupt files
	// are detected, deleted and recaptured, never trusted.
	Dir string
	// Registry receives the trace.* telemetry counters; nil gets a
	// private registry.
	Registry *telemetry.Registry
	// Upstream, when non-empty, is the base URL of a peer bioperf5
	// server whose /v1/traces endpoint acts as a shared remote tier:
	// probed after a local disk miss, pushed to after a local capture.
	// Best-effort; every downloaded trace is checksum-verified and
	// matched against the requested key before use.
	Upstream string
	// Transport, when non-nil, overrides the remote tier's HTTP
	// transport — the chaos suite plugs its fault injector in here.
	Transport http.RoundTripper
	// Injector, when non-nil, is consulted at fault.SiteTrace after
	// every disk write: a Corrupt decision tears the freshly written
	// file, modelling bit rot the next process must detect and heal.
	Injector fault.Injector
}

// Store is the content-addressed trace cache: an in-memory LRU with a
// byte budget in front of an optional on-disk tier, with single-flight
// capture so concurrent requests for the same trace run one functional
// execution.  All methods are safe for concurrent use.
type Store struct {
	budget int64
	dir    string
	remote *durable.Remote
	inj    fault.Injector

	mu       sync.Mutex
	entries  map[string]*list.Element // key hash -> lru element
	lru      *list.List               // front = most recently used
	bytes    int64
	inflight map[string]*flight

	mCaptures, mMemHits, mDiskHits  *telemetry.Counter
	mDiskWrites, mCorrupt, mEvicted *telemetry.Counter
	mFaults                         *telemetry.Counter
	gBytes, gEntries                *telemetry.Gauge
}

type storeEntry struct {
	hash string
	t    *Trace
}

type flight struct {
	done chan struct{}
	t    *Trace
	err  error
}

// NewStore builds a store.
func NewStore(o StoreOptions) *Store {
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Store{
		budget:   o.Budget,
		dir:      o.Dir,
		inj:      o.Injector,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),

		mFaults:     reg.Counter("trace.faults.injected"),
		mCaptures:   reg.Counter("trace.captures"),
		mMemHits:    reg.Counter("trace.hits.memory"),
		mDiskHits:   reg.Counter("trace.hits.disk"),
		mDiskWrites: reg.Counter("trace.disk.writes"),
		mCorrupt:    reg.Counter("trace.corrupt"),
		mEvicted:    reg.Counter("trace.evictions"),
		gBytes:      reg.Gauge("trace.bytes"),
		gEntries:    reg.Gauge("trace.entries"),
	}
	if o.Upstream != "" {
		s.remote = durable.NewRemote(o.Upstream, RemoteTier, o.Transport, reg)
	}
	return s
}

// GetOrCapture returns the trace for key, capturing it with the given
// function if no tier has it.  The second return reports a hit: true
// when the trace already existed (in memory, on disk, or captured by a
// concurrent caller this store coalesced with), false when this call
// ran the capture.  A capture error is returned without storing
// anything, so a later call retries.  ctx bounds the remote-tier round
// trips and the wait for a concurrent caller's capture.
func (s *Store) GetOrCapture(ctx context.Context, key Key, capture func() (*Trace, error)) (*Trace, bool, error) {
	hash := key.Hash()
	s.mu.Lock()
	if t := s.memHit(hash); t != nil {
		s.mu.Unlock()
		return t, true, nil
	}
	if fl, ok := s.inflight[hash]; ok {
		s.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if fl.err != nil {
			return nil, false, fl.err
		}
		return fl.t, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[hash] = fl
	s.mu.Unlock()

	t, hit, err := s.fill(ctx, hash, key, capture)
	fl.t, fl.err = t, err
	s.mu.Lock()
	delete(s.inflight, hash)
	s.mu.Unlock()
	close(fl.done)
	return t, hit, err
}

// Get returns the trace for key if some tier has it, without
// capturing.  Used by the explicit replay-only policy.  ctx bounds the
// remote-tier round trip.
func (s *Store) Get(ctx context.Context, key Key) (*Trace, bool) {
	hash := key.Hash()
	s.mu.Lock()
	t := s.memHit(hash)
	s.mu.Unlock()
	if t != nil {
		return t, true
	}
	return s.load(ctx, hash, key)
}

// Put installs a freshly captured trace under key, replacing any
// existing entry (the forced-capture policy uses it).
func (s *Store) Put(key Key, t *Trace) {
	s.install(key.Hash(), t)
	s.diskWrite(key.Hash(), t)
}

// memHit returns the in-memory trace at hash, or nil.  The caller
// holds s.mu.
func (s *Store) memHit(hash string) *Trace {
	el, ok := s.entries[hash]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	s.mMemHits.Add(1)
	return el.Value.(*storeEntry).t
}

// load probes the disk tier, then the shared remote tier (writing a
// remote hit through to disk), and installs a hit in memory.
func (s *Store) load(ctx context.Context, hash string, key Key) (*Trace, bool) {
	if t, ok := s.diskLoad(hash, key); ok {
		s.install(hash, t)
		s.mDiskHits.Add(1)
		return t, true
	}
	if t, ok := s.remoteLoad(ctx, hash, key); ok {
		s.install(hash, t)
		s.diskWrite(hash, t)
		return t, true
	}
	return nil, false
}

// fill resolves a registered single-flight: the disk and remote tiers,
// then capture (pushing the fresh capture back upstream so the rest of
// the fleet replays it).
func (s *Store) fill(ctx context.Context, hash string, key Key, capture func() (*Trace, error)) (*Trace, bool, error) {
	if t, ok := s.load(ctx, hash, key); ok {
		return t, true, nil
	}
	t, err := capture()
	if err != nil {
		return nil, false, err
	}
	s.mCaptures.Add(1)
	s.install(hash, t)
	s.diskWrite(hash, t)
	if s.remote != nil {
		if b, err := t.EncodeFile(); err != nil {
			s.remote.Errors.Add(1)
		} else {
			s.remote.Put(ctx, hash, b)
		}
	}
	return t, false, nil
}

// remoteLoad fetches the trace at hash from the shared remote tier;
// anything short of a checksum-clean file answering key is a miss.
func (s *Store) remoteLoad(ctx context.Context, hash string, key Key) (*Trace, bool) {
	if s.remote == nil {
		return nil, false
	}
	var t *Trace
	ok := s.remote.Get(ctx, hash, func(b []byte) (err error) {
		if t, err = DecodeFile(b); err == nil && !key.Matches(t.Meta) {
			err = fmt.Errorf("trace: downloaded trace does not answer key %s", hash)
		}
		return err
	})
	return t, ok
}

// install puts a trace into the in-memory tier and evicts past the
// byte budget.
func (s *Store) install(hash string, t *Trace) {
	s.mu.Lock()
	if el, ok := s.entries[hash]; ok {
		old := el.Value.(*storeEntry)
		s.bytes -= old.t.SizeBytes()
		old.t = t
		s.lru.MoveToFront(el)
	} else {
		s.entries[hash] = s.lru.PushFront(&storeEntry{hash: hash, t: t})
	}
	s.bytes += t.SizeBytes()
	var evicted int64
	for s.bytes > s.budget && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*storeEntry)
		s.lru.Remove(el)
		delete(s.entries, e.hash)
		s.bytes -= e.t.SizeBytes()
		evicted++
	}
	s.gBytes.Set(float64(s.bytes))
	s.gEntries.Set(float64(s.lru.Len()))
	s.mu.Unlock()
	if evicted > 0 {
		s.mEvicted.Add(uint64(evicted))
	}
}

// Len returns the number of in-memory traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Bytes returns the in-memory tier's current size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	Captures   uint64 `json:"captures"`
	MemoryHits uint64 `json:"memory_hits"`
	DiskHits   uint64 `json:"disk_hits"`
	DiskWrites uint64 `json:"disk_writes"`
	Corrupt    uint64 `json:"corrupt"`
	Evictions  uint64 `json:"evictions"`
	RemoteHits uint64 `json:"remote_hits,omitempty"`
	RemotePuts uint64 `json:"remote_puts,omitempty"`
	Faults     uint64 `json:"faults_injected,omitempty"`
	Bytes      int64  `json:"bytes"`
	Entries    int    `json:"entries"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	var rh, rp uint64
	if s.remote != nil {
		rh, rp = s.remote.Hits.Value(), s.remote.Puts.Value()
	}
	return Stats{
		Captures:   s.mCaptures.Value(),
		MemoryHits: s.mMemHits.Value(),
		DiskHits:   s.mDiskHits.Value(),
		DiskWrites: s.mDiskWrites.Value(),
		Corrupt:    s.mCorrupt.Value(),
		Evictions:  s.mEvicted.Value(),
		RemoteHits: rh,
		RemotePuts: rp,
		Faults:     s.mFaults.Value(),
		Bytes:      s.Bytes(),
		Entries:    s.Len(),
	}
}

// Entry returns the encoded file form of the trace addressed by hash,
// from the in-memory tier or (verified) from disk — the body
// GET /v1/traces/{key} serves.
func (s *Store) Entry(hash string) ([]byte, bool) {
	s.mu.Lock()
	t := s.memHit(hash)
	s.mu.Unlock()
	if t != nil {
		b, err := t.EncodeFile()
		return b, err == nil
	}
	if s.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, false
	}
	// Serve only what verifies: structural + checksum integrity and a
	// meta that hashes back to the requested address.
	dt, err := DecodeFile(b)
	if err != nil || KeyFromMeta(dt.Meta).Hash() != hash {
		return nil, false
	}
	s.mDiskHits.Add(1)
	return b, true
}

// Install verifies body as an encoded trace file addressed by hash and
// stores it in both local tiers — the write path behind
// PUT /v1/traces/{key}.
func (s *Store) Install(hash string, body []byte) error {
	t, err := DecodeFile(body)
	if err != nil {
		return err
	}
	if KeyFromMeta(t.Meta).Hash() != hash {
		return fmt.Errorf("trace: uploaded trace does not answer key %s", hash)
	}
	s.install(hash, t)
	s.diskWrite(hash, t)
	return nil
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".trace")
}

// diskLoad reads and verifies a trace file.  A file that fails the
// checksum, or whose meta does not answer the key, is corrupt: it is
// counted, removed, and the caller captures fresh.
func (s *Store) diskLoad(hash string, key Key) (*Trace, bool) {
	if s.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, false
	}
	t, err := DecodeFile(b)
	if err != nil || !key.Matches(t.Meta) {
		s.mCorrupt.Add(1)
		os.Remove(s.path(hash))
		return nil, false
	}
	return t, true
}

// diskWrite persists a trace through the atomic write, so a torn
// write can never sit at the final address.  Failures are not errors:
// the in-memory trace is sound, only the cross-process tier misses
// next time.
func (s *Store) diskWrite(hash string, t *Trace) {
	if s.dir == "" {
		return
	}
	b, err := t.EncodeFile()
	if err != nil {
		return
	}
	if durable.WriteFile(s.path(hash), b) != nil {
		return
	}
	s.mDiskWrites.Add(1)
	s.mangle(hash, int64(len(b)))
}

// mangle is the SiteTrace fault hook: when the injector orders a
// Corrupt, the just-written file is torn in half after it landed at
// its final address — exactly the damage the crash-safe write protocol
// cannot produce on its own, so diskLoad's detect-and-recapture path
// and `bioperf5 fsck` get exercised against a real torn file.
func (s *Store) mangle(hash string, size int64) {
	if s.inj == nil {
		return
	}
	if s.inj.Decide(fault.SiteTrace, hash, 0).Kind != fault.Corrupt {
		return
	}
	if err := os.Truncate(s.path(hash), size/2); err != nil {
		return
	}
	s.mFaults.Add(1)
}
