package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bioperf5/internal/cpu"
	"bioperf5/internal/durable"
)

// diskStore is the content-addressed on-disk result cache: one JSON
// file per job, named by the job's content hash.  Every entry embeds
// the full canonical key plus a checksum of the result payload, so a
// load verifies three things before trusting a file: it parses, its
// key hashes back to the filename, and its result matches the stored
// checksum.  Anything else is treated as corruption and recomputed.
type diskStore struct {
	dir string
}

// diskEntry is the file format.
type diskEntry struct {
	Key    Key        `json:"key"`
	SHA256 string     `json:"sha256"` // hex SHA-256 of the canonical result JSON
	Result cpu.Report `json:"result"`
}

func (d *diskStore) path(hash string) string {
	return filepath.Join(d.dir, hash+".json")
}

func resultSum(rep cpu.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// encodeEntry serializes one cache entry in the self-verifying format
// shared by the disk tier and the /v1/cache wire protocol.
func encodeEntry(key Key, rep cpu.Report) ([]byte, error) {
	sum, err := resultSum(rep)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(diskEntry{Key: key, SHA256: sum, Result: rep}, "", "  ")
}

// decodeEntry parses and verifies an entry against the content hash it
// was addressed by: it must parse, its embedded key must hash back to
// the address, and the result must match the stored checksum.  Nothing
// read from disk or the network is trusted past this gate.
func decodeEntry(b []byte, hash string) (diskEntry, error) {
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("sched: cache entry: %w", err)
	}
	kb, err := json.Marshal(e.Key)
	if err != nil {
		return e, fmt.Errorf("sched: cache entry: %w", err)
	}
	sum := sha256.Sum256(kb)
	if hex.EncodeToString(sum[:]) != hash {
		return e, fmt.Errorf("sched: cache entry key does not hash to its address %s", hash)
	}
	got, err := resultSum(e.Result)
	if err != nil || got != e.SHA256 {
		return e, fmt.Errorf("sched: cache entry result checksum mismatch")
	}
	return e, nil
}

// VerifyEntry checks that b is a well-formed result-cache entry whose
// key hashes to hash and whose result matches its embedded checksum —
// the integrity gate `bioperf5 fsck` runs over a cache directory
// without needing an engine.
func VerifyEntry(b []byte, hash string) error {
	_, err := decodeEntry(b, hash)
	return err
}

// decodeResult is decodeEntry for a caller that knows which key it
// asked for: the entry must also answer want.
func decodeResult(b []byte, hash string, want Key) (cpu.Report, error) {
	e, err := decodeEntry(b, hash)
	if err == nil && e.Key != want {
		err = fmt.Errorf("sched: cache entry at %s answers a different key", hash)
	}
	return e.Result, err
}

// load returns the cached result for hash.  ok reports a verified hit;
// corrupt reports that a file existed but failed verification (the
// caller recomputes and overwrites it).  A missing file is neither.
func (d *diskStore) load(hash string, want Key) (rep cpu.Report, ok, corrupt bool) {
	b, err := os.ReadFile(d.path(hash))
	if err != nil {
		return cpu.Report{}, false, false
	}
	if rep, err = decodeResult(b, hash, want); err != nil {
		return cpu.Report{}, false, true
	}
	return rep, true, false
}

// loadRaw returns the verified encoded bytes of the entry at hash —
// the form the /v1/cache endpoint serves.
func (d *diskStore) loadRaw(hash string) ([]byte, bool) {
	b, err := os.ReadFile(d.path(hash))
	if err != nil {
		return nil, false
	}
	if _, err := decodeEntry(b, hash); err != nil {
		return nil, false
	}
	return b, true
}

// store persists encoded entry bytes at hash through the atomic write,
// so neither a concurrent reader nor a post-crash resume ever sees a
// truncated entry at the final address.  The caller has verified the
// bytes (encodeEntry built them, or the cache endpoint ran
// decodeEntry).
func (d *diskStore) store(hash string, b []byte) error {
	return durable.WriteFile(d.path(hash), b)
}

// mangle truncates a stored entry in place, simulating a torn write or
// bit rot landing at the final address.  Only the fault injector calls
// it; the next load must detect the damage and recompute.
func (d *diskStore) mangle(hash string) {
	p := d.path(hash)
	if fi, err := os.Stat(p); err == nil && fi.Size() > 1 {
		os.Truncate(p, fi.Size()/2)
	}
}
