// Package durable holds the crash-safety rules for every piece of
// bioperf5 state that outlives a process or crosses the network, so
// they are stated once:
//
//   - WriteFile: the one atomic file write (temp file, fsync, rename,
//     directory fsync).  Result-cache entries, trace files, sweep
//     manifests and fsck's journal repairs all land through it.
//   - Journal: the one append-only, fsync'd JSONL log.  Its loader
//     skips every line it cannot use, so only an I/O failure can keep
//     a journal from opening.
//   - Remote: the one best-effort client for content-addressed blobs
//     on a peer (GET/PUT <base><tier path><key>), verified on arrival.
//   - KeyOK: the one check that a name is a content address.
//
// It depends on nothing in bioperf5 but telemetry, so both sched and
// trace (which sched imports) can use it.
package durable

import (
	"os"
	"path/filepath"
	"strings"
)

// tempMarker is in the name of every temp file WriteFile creates:
// "<final name>.tmp<random>".  IsTemp looks for it.
const tempMarker = ".tmp"

// IsTemp reports whether name is a write that never reached its
// rename.  Besides WriteFile's own temps it recognises the
// ".manifest-*.json" and ".fsck-*" temps earlier versions of the
// manifest writer and fsck created, which a state directory written by
// them may still hold.
func IsTemp(name string) bool {
	return strings.Contains(name, tempMarker) ||
		strings.HasPrefix(name, ".manifest-") && strings.HasSuffix(name, ".json") ||
		strings.HasPrefix(name, ".fsck-")
}

// WriteFile lands data at path crash-safely, creating path's directory
// if needed.  The bytes go to a temp file in the same directory, are
// fsync'd, and are renamed over path, and then the directory is
// fsync'd: a crash leaves either the old file or the complete new one
// at path, never a torn one, and at worst a stale temp that IsTemp
// recognises.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tempMarker+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		// Flush the payload before the rename publishes it, so the file
		// can never be durable by name but empty by content.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs a directory so the renames into it survive a crash.
// Best-effort: some filesystems reject directory fsync, and a lost
// rename only costs a recompute.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// KeyOK reports whether key is a content address: a lower-case hex
// SHA-256 and nothing else, so it can never traverse paths or name a
// foreign file.
func KeyOK(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
