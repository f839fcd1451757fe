package durable

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"time"

	"bioperf5/internal/telemetry"
)

// Tier describes one content-addressed blob tier of the hub protocol:
// a peer serves the blob for key at <base><Path><key> and accepts one
// by PUT at the same URL.
type Tier struct {
	Path        string        // URL path prefix, ending in '/'
	ContentType string        // Content-Type of an uploaded blob
	MaxBytes    int64         // bound on a downloaded blob
	Timeout     time.Duration // bound on one round trip
	Metric      string        // counter prefix: <Metric>.hits, .misses, .errors, .puts
}

// Remote is a best-effort client for one blob tier on a peer.  Every
// failure (unreachable peer, HTTP error, short read, a body the
// caller's verify rejects) degrades to a miss and is counted, never
// returned: a peer can cost a recompute, never a wrong result.  Every
// round trip is bounded by both the caller's context and the tier's
// timeout.
type Remote struct {
	url  string // base URL + tier path
	tier Tier
	hc   *http.Client

	Hits, Misses, Errors, Puts *telemetry.Counter
}

// NewRemote builds a client for tier t on the peer at base, publishing
// its counters into reg.  A non-nil transport replaces the default
// one; the chaos suite plugs its fault injector in there.
func NewRemote(base string, t Tier, transport http.RoundTripper, reg *telemetry.Registry) *Remote {
	return &Remote{
		url:  strings.TrimRight(base, "/") + t.Path,
		tier: t,
		hc:   &http.Client{Timeout: t.Timeout, Transport: transport},

		Hits:   reg.Counter(t.Metric + ".hits"),
		Misses: reg.Counter(t.Metric + ".misses"),
		Errors: reg.Counter(t.Metric + ".errors"),
		Puts:   reg.Counter(t.Metric + ".puts"),
	}
}

// Get fetches the blob at key and reports whether verify accepted it.
// A 404 is a plain miss; anything else short of a verified body is
// counted as an error.
func (r *Remote) Get(ctx context.Context, key string, verify func([]byte) error) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+key, nil)
	if err != nil {
		r.Errors.Add(1)
		return false
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		r.Errors.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusNotFound {
			r.Misses.Add(1)
		} else {
			r.Errors.Add(1)
		}
		return false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, r.tier.MaxBytes))
	if err != nil || verify(b) != nil {
		r.Errors.Add(1)
		return false
	}
	r.Hits.Add(1)
	return true
}

// Put uploads body as the blob at key.
func (r *Remote) Put(ctx context.Context, key string, body []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.url+key, bytes.NewReader(body))
	if err != nil {
		r.Errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", r.tier.ContentType)
	resp, err := r.hc.Do(req)
	if err != nil {
		r.Errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.Errors.Add(1)
		return
	}
	r.Puts.Add(1)
}
