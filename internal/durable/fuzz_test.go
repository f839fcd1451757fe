package durable_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bioperf5/internal/durable"
	"bioperf5/internal/fsck"
)

// rec is a journal record shaped like the coordinator's: a key, and a
// status that must be "ok" for the record to count.
type rec struct {
	Key    string `json:"key"`
	Status string `json:"status"`
}

func accept(r rec) (string, bool) { return r.Key, r.Key != "" && r.Status == "ok" }

// accepted is the oracle: the records among content's '\n'-separated
// lines that decode and that accept keys, the last one winning.
func accepted(content []byte) map[string]rec {
	m := make(map[string]rec)
	for _, line := range bytes.Split(content, []byte{'\n'}) {
		var r rec
		if json.Unmarshal(line, &r) != nil {
			continue
		}
		if key, ok := accept(r); ok {
			m[key] = r
		}
	}
	return m
}

// replayed opens the journal at path and checks it holds exactly want.
func replayed(t *testing.T, path string, want map[string]rec) *durable.Journal[rec] {
	t.Helper()
	j, err := durable.OpenJournal(path, accept)
	if err != nil {
		t.Fatalf("file content made OpenJournal fail: %v", err)
	}
	if j.Len() != len(want) {
		t.Fatalf("replayed %d records, want %d: %v", j.Len(), len(want), want)
	}
	for key, r := range want {
		if got, ok := j.Lookup(key); !ok || got != r {
			t.Fatalf("record %q = %+v (%v), want %+v", key, got, ok, r)
		}
	}
	return j
}

// FuzzJournalOpen loads arbitrary bytes as a journal.  The loader must
// never panic or fail on content and must replay exactly the
// well-formed accepted records; an append after any content (a torn
// tail included) must add exactly the new record; and fsck's repair
// must leave the replayed set unchanged.
func FuzzJournalOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, content []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		want := accepted(content)
		j := replayed(t, path, want)

		fresh := rec{Key: "appended", Status: "ok"}
		if _, dup := want[fresh.Key]; !dup {
			want[fresh.Key] = fresh
		}
		if err := j.Append(fresh); err != nil {
			t.Fatal(err)
		}
		j.Close()
		replayed(t, path, want).Close()

		if _, err := fsck.Run(fsck.Options{Dirs: []string{dir}}); err != nil {
			t.Fatal(err)
		}
		replayed(t, path, want).Close()
	})
}
