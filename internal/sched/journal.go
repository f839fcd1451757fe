package sched

import (
	"fmt"

	"bioperf5/internal/durable"
)

// Journal is the sweep's crash-safe completion record: a
// durable.Journal with one record per completed cell hash.  It lives
// next to the disk cache; the cache holds the results, the journal is
// the durable statement of which cells are done.  After a crash,
// re-running the same sweep against the same directory consults the
// journal (via the engine's telemetry) and the cache, re-simulating
// only unfinished cells.
type Journal struct {
	log *durable.Journal[journalRecord]
}

// journalRecord is one JSONL line.
type journalRecord struct {
	Hash   string `json:"hash"`
	Status string `json:"status"`
}

// OpenJournal opens (creating if necessary) the journal at path and
// replays its records.  No content, a torn tail of any length
// included, keeps it from opening.
func OpenJournal(path string) (*Journal, error) {
	log, err := durable.OpenJournal(path, func(r journalRecord) (string, bool) {
		return r.Hash, r.Hash != ""
	})
	if err != nil {
		return nil, fmt.Errorf("sched: journal: %w", err)
	}
	return &Journal{log: log}, nil
}

// Done reports whether hash has been recorded as completed.
func (j *Journal) Done(hash string) bool {
	_, ok := j.log.Lookup(hash)
	return ok
}

// Len returns the number of completed cells on record.
func (j *Journal) Len() int { return j.log.Len() }

// Record appends one completed cell hash and fsyncs.  Recording an
// already-journaled hash is a no-op, so replays stay idempotent.
func (j *Journal) Record(hash string) error {
	if err := j.log.Append(journalRecord{Hash: hash, Status: "ok"}); err != nil {
		return fmt.Errorf("sched: journal: %w", err)
	}
	return nil
}

// Close releases the underlying file.  The journal must not be used
// afterwards.
func (j *Journal) Close() error { return j.log.Close() }
