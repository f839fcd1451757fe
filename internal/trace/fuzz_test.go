package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// seal appends the SHA-256 a trace file ends with, so a test or fuzz
// input gets past the checksum into the length, meta and payload
// parsing.
func seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body[:len(body):len(body)], sum[:]...)
}

// checkIter walks tr and requires the trace contract: either the
// iterator reports ErrCorrupt, or it yields exactly Meta.Records
// records.
func checkIter(t *testing.T, tr *Trace) {
	t.Helper()
	it := tr.Iter()
	var n uint64
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("iterator error %v is not ErrCorrupt", err)
		}
		return
	}
	if n != tr.Meta.Records {
		t.Fatalf("iterator yielded %d records, meta claims %d", n, tr.Meta.Records)
	}
}

// TestDecodeFileHugeLengths feeds checksummed files whose meta or
// payload length uvarint is 2^63 or more.  Converted to int such a
// length turns negative; it must be rejected as corrupt, not panic.
func TestDecodeFileHugeLengths(t *testing.T) {
	for _, l := range []uint64{1 << 63, 1<<63 + 9, math.MaxUint64} {
		body := binary.AppendUvarint(append([]byte(nil), magic...), l)
		body = append(body, `{"schema":2}`...)
		if _, err := DecodeFile(seal(body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("meta length %d: err = %v, want ErrCorrupt", l, err)
		}

		meta := []byte(`{"schema":2}`)
		body = binary.AppendUvarint(append([]byte(nil), magic...), uint64(len(meta)))
		body = binary.AppendUvarint(append(body, meta...), l)
		if _, err := DecodeFile(seal(append(body, 0, 0))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("payload length %d: err = %v, want ErrCorrupt", l, err)
		}
	}
}

// FuzzDecodeFile fuzzes the file decoder behind the checksum: the
// harness seals each input, so mutations reach the length, meta and
// payload parsing.  A decoded trace must then iterate cleanly.
func FuzzDecodeFile(f *testing.F) {
	b, err := buildSample(f).EncodeFile()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b[:len(b)-sha256.Size])
	f.Fuzz(func(t *testing.T, body []byte) {
		tr, err := DecodeFile(seal(body))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		checkIter(t, tr)
	})
}

// FuzzIter feeds arbitrary payload bytes and record counts to the
// record iterator.
func FuzzIter(f *testing.F) {
	tr := buildSample(f)
	f.Add(tr.Payload, tr.Meta.Records)
	f.Fuzz(func(t *testing.T, payload []byte, records uint64) {
		checkIter(t, &Trace{Meta: Meta{Records: records}, Payload: payload})
	})
}
