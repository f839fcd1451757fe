package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// FuzzVerifyEntry runs the result-cache entry gate on arbitrary bytes
// and addresses: what a damaged disk file or a PUT /v1/cache/{key} body
// can hold.  It must never panic, and an entry it accepts must have a
// key that hashes to the address and must re-encode to an entry that
// passes the gate again.
func FuzzVerifyEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, hash string) {
		if VerifyEntry(b, hash) != nil {
			return
		}
		var e diskEntry
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("accepted an entry that does not parse: %v", err)
		}
		kb, err := json.Marshal(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(kb); hex.EncodeToString(sum[:]) != hash {
			t.Fatalf("accepted an entry whose key does not hash to %s", hash)
		}
		re, err := encodeEntry(e.Key, e.Result)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyEntry(re, hash); err != nil {
			t.Fatalf("re-encoded entry fails the gate: %v", err)
		}
	})
}
