package cluster

import (
	"fmt"

	"bioperf5/internal/durable"
	"bioperf5/internal/harness"
)

// Journal is the coordinator's crash-safe completion record.  Unlike
// the scheduler's journal (which marks hashes done and relies on the
// local disk cache for the bytes), the coordinator has no local cache
// — results live on the workers and the shared hub — so its journal
// carries the full per-cell stats.  A resumed sweep replays completed
// cells straight from this file and dispatches only the remainder.
// Only ok cells are durable: a failed cell must be retried by the next
// run, not remembered, so Append skips it and replay ignores it.
type Journal = durable.Journal[Record]

// Record is one completed cell: its content key and the stats the
// manifest needs to reproduce it without re-dispatching.
type Record struct {
	Key      string              `json:"key"`
	Status   string              `json:"status"`
	TraceHit bool                `json:"trace_hit,omitempty"`
	Stats    harness.KernelStats `json:"stats"`
}

// OpenJournal opens (creating if necessary) the journal at path and
// replays its records.
func OpenJournal(path string) (*Journal, error) {
	j, err := durable.OpenJournal(path, func(r Record) (string, bool) {
		return r.Key, r.Key != "" && r.Status == harness.StatusOK
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	return j, nil
}
