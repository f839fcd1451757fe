package sched

import (
	"context"
	"errors"
	"time"

	"bioperf5/internal/cpu"
	"bioperf5/internal/durable"
)

// Remote result-cache tier.  With Options.CacheUpstream set, the
// engine probes a peer's /v1/cache endpoint after a local disk miss
// and pushes freshly computed results back, so one node's simulation
// is every node's cache hit.  Entries travel in the same
// self-verifying format the disk tier stores and are re-verified on
// arrival; durable.Remote makes every upstream failure a miss.

// CacheTier is the /v1/cache blob tier: result entries are small JSON
// documents, and a slow upstream must never cost more than a fraction
// of the simulation it might save.
var CacheTier = durable.Tier{
	Path:        "/v1/cache/",
	ContentType: "application/json",
	MaxBytes:    4 << 20,
	Timeout:     10 * time.Second,
	Metric:      "sched.cache.remote",
}

// ErrNoCacheDir is returned by InstallCacheEntry on an engine without
// a disk tier: such a server cannot act as a durable hub.
var ErrNoCacheDir = errors.New("sched: no cache directory configured")

// remoteLoad probes the upstream for hash.  Anything but a verified
// entry answering want is a miss.
func (e *Engine) remoteLoad(ctx context.Context, hash string, want Key) (cpu.Report, bool) {
	var rep cpu.Report
	ok := e.remote.Get(ctx, hash, func(b []byte) (err error) {
		rep, err = decodeResult(b, hash, want)
		return err
	})
	return rep, ok
}

// CacheEntry returns the verified encoded bytes of the local
// disk-cached result addressed by hash — the body GET /v1/cache/{key}
// serves.  False when the engine has no disk tier or no such entry.
func (e *Engine) CacheEntry(hash string) ([]byte, bool) {
	if e.disk == nil {
		return nil, false
	}
	return e.disk.loadRaw(hash)
}

// InstallCacheEntry verifies body as a cache entry addressed by hash
// and persists it to the local disk tier — the write path behind
// PUT /v1/cache/{key}.
func (e *Engine) InstallCacheEntry(hash string, body []byte) error {
	if e.disk == nil {
		return ErrNoCacheDir
	}
	if _, err := decodeEntry(body, hash); err != nil {
		return err
	}
	if err := e.disk.store(hash, body); err != nil {
		return err
	}
	e.mDiskWrites.Add(1)
	return nil
}
