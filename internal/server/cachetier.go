package server

import (
	"errors"
	"io"
	"net/http"

	"bioperf5/internal/durable"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// Shared cache tier: GET/PUT /v1/cache/{key} for content-addressed
// simulation results and GET/PUT /v1/traces/{key} for captured
// instruction traces.  A server with these endpoints is a cache hub a
// fleet of workers shares (via sched.Options.CacheUpstream), so one
// node's compute or capture is every node's hit.
//
// The endpoints are deliberately dumb: opaque verified blobs addressed
// by content hash, one GET/PUT pair parameterised by tier.  All
// verification is done by the stores themselves — an uploaded entry
// must parse, checksum clean, and hash back to the address it claims —
// so a confused or malicious client can waste a PUT but never poison a
// result.

// blobTier is one tier the hub serves.
type blobTier struct {
	durable.Tier // URL path and content type, shared with the client

	noun    string // names a key in a 400: "bad <noun> key"
	item    string // names what a 404 lacks: "no <item> for <key>"
	hint    string // appended to every PUT error
	maxBody int64  // bound on an uploaded blob

	get func(key string) ([]byte, bool)
	put func(key string, body []byte) error

	hits, misses, puts *telemetry.Counter
}

// serveBlobs registers one GET/PUT pair per tier on the server's mux.
func (s *Server) serveBlobs() {
	traces := s.eng.TraceStore()
	tiers := []*blobTier{{
		Tier: sched.CacheTier,
		noun: "cache",
		item: "cache entry",
		// No disk tier means this server cannot act as a durable hub.
		hint:    " (start the hub with -cache-dir)",
		maxBody: maxBodyBytes,
		get:     s.eng.CacheEntry,
		put:     s.eng.InstallCacheEntry,
		hits:    s.reg.Counter("server.cache.hits"),
		misses:  s.reg.Counter("server.cache.misses"),
		puts:    s.reg.Counter("server.cache.puts"),
	}, {
		Tier:    trace.RemoteTier,
		noun:    "trace",
		item:    "trace",
		maxBody: trace.RemoteTier.MaxBytes,
		get:     traces.Entry,
		put:     traces.Install,
		hits:    s.reg.Counter("server.traces.hits"),
		misses:  s.reg.Counter("server.traces.misses"),
		puts:    s.reg.Counter("server.traces.puts"),
	}}
	for _, t := range tiers {
		s.mux.HandleFunc("GET "+t.Path+"{key}", s.handleBlobGet(t))
		s.mux.HandleFunc("PUT "+t.Path+"{key}", s.handleBlobPut(t))
	}
}

func (s *Server) handleBlobGet(t *blobTier) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !durable.KeyOK(key) {
			s.errorJSON(w, http.StatusBadRequest, "bad %s key %q: want a hex SHA-256", t.noun, key)
			return
		}
		b, ok := t.get(key)
		if !ok {
			t.misses.Add(1)
			s.errorJSON(w, http.StatusNotFound, "no %s for %s", t.item, key)
			return
		}
		t.hits.Add(1)
		w.Header().Set("Content-Type", t.ContentType)
		w.Write(b)
	}
}

func (s *Server) handleBlobPut(t *blobTier) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !durable.KeyOK(key) {
			s.errorJSON(w, http.StatusBadRequest, "bad %s key %q: want a hex SHA-256", t.noun, key)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, t.maxBody))
		if err != nil {
			s.errorJSON(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		if err := t.put(key, body); err != nil {
			// A verification failure is the client's fault; a missing
			// disk tier is the hub's.
			status := http.StatusBadRequest
			if errors.Is(err, sched.ErrNoCacheDir) {
				status = http.StatusServiceUnavailable
			}
			s.errorJSON(w, status, "%v%s", err, t.hint)
			return
		}
		t.puts.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}
}
