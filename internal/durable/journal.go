package durable

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Journal is an append-only JSONL log of records of type R, one record
// per line, fsync'd after every append.  Each record is indexed by the
// key the caller's accept function draws from it; records accept
// refuses are neither replayed nor written.
//
// Loading tolerates any damage a crash or bit rot can leave: a line
// that does not decode as R, or that accept refuses, is skipped,
// whatever its length.  A file ending mid-line (a torn tail) gets a
// newline before the next append, so the torn bytes can never run into
// a fresh record.  All methods are safe for concurrent use.
type Journal[R any] struct {
	accept func(R) (key string, ok bool)

	mu   sync.Mutex
	f    *os.File
	recs map[string]R
	torn bool // the file ends mid-line
}

// OpenJournal opens the journal at path, creating it and its directory
// if needed, and replays it: every line that decodes as R and that
// accept keys is on record, the last one winning for a key.  Only an
// I/O failure is an error; no file content is.
func OpenJournal[R any](path string, accept func(R) (key string, ok bool)) (*Journal[R], error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal[R]{accept: accept, f: f, recs: make(map[string]R)}
	err = Lines(f, func(line []byte, terminated bool) {
		j.torn = !terminated
		var rec R
		if json.Unmarshal(line, &rec) != nil {
			return
		}
		if key, ok := accept(rec); ok {
			j.recs[key] = rec
		}
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Lines calls fn with each line of r, without its '\n'; terminated
// reports whether the line ended in one (only the last line can fail
// to).  Lines of any length are delivered whole.  It is the one line
// splitter for journals: the loader above and fsck's repair both read
// through it, so they agree on what a line is.
func Lines(r io.Reader, fn func(line []byte, terminated bool)) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			terminated := line[len(line)-1] == '\n'
			if terminated {
				line = line[:len(line)-1]
			}
			fn(line, terminated)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Lookup returns the record on file for key.
func (j *Journal[R]) Lookup(key string) (R, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[key]
	return rec, ok
}

// Len returns the number of keys on record.
func (j *Journal[R]) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Append writes rec as one line and fsyncs.  A record accept refuses,
// or whose key is already on record, is not written, so replays stay
// idempotent.
func (j *Journal[R]) Append(rec R) error {
	key, ok := j.accept(rec)
	if !ok {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.recs[key]; dup {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if j.torn {
		b = append([]byte{'\n'}, b...)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.torn = false
	j.recs[key] = rec
	return nil
}

// Close releases the file.  The journal must not be used afterwards.
func (j *Journal[R]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
