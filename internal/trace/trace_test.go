package trace

import (
	"errors"
	"testing"
)

// sampleRecords exercises every encoding path: plain ops, taken and
// not-taken branches, loads and stores across all three miss levels,
// and backward PC deltas (loops).
func sampleRecords() []Record {
	return []Record{
		{PC: 0},
		{PC: 1, HasEA: true, EA: 0x7FFF0000, MissLevel: 2},
		{PC: 2, HasEA: true, EA: 0x7FFF0008, MissLevel: 0},
		{PC: 3, Taken: true},
		{PC: 1, HasEA: true, EA: 0x1000, MissLevel: 1},
		{PC: 2, HasEA: true, EA: 0x7FFF0000},
		{PC: 3, Taken: true},
		{PC: 1, Taken: false},
		{PC: 4},
	}
}

func buildSample(t testing.TB) *Trace {
	t.Helper()
	var b Builder
	for _, r := range sampleRecords() {
		b.Add(r)
	}
	return b.Finish(Meta{App: "Fasta", Kernel: "dropgsw", Variant: "original",
		Seed: 1, Scale: 1, ProgHash: "abc", Result: 42})
}

func TestBuilderIterRoundTrip(t *testing.T) {
	tr := buildSample(t)
	want := sampleRecords()
	if tr.Meta.Records != uint64(len(want)) {
		t.Fatalf("Records = %d, want %d", tr.Meta.Records, len(want))
	}
	it := tr.Iter()
	var got []Record
	for it.Next() {
		got = append(got, *it.Rec())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		// Next is derived: the successor's PC, or own PC for the final
		// record (the machine's halt convention).
		w.Next = w.PC
		if i+1 < len(want) {
			w.Next = want[i+1].PC
		}
		if got[i] != w {
			t.Errorf("record %d = %+v, want %+v", i, got[i], w)
		}
	}
}

func TestIterEmptyTrace(t *testing.T) {
	var b Builder
	tr := b.Finish(Meta{})
	it := tr.Iter()
	if it.Next() {
		t.Fatal("Next on empty trace")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIterTruncatedPayload(t *testing.T) {
	tr := buildSample(t)
	tr.Payload = tr.Payload[:len(tr.Payload)/2]
	it := tr.Iter()
	for it.Next() {
	}
	if err := it.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: err = %v, want ErrCorrupt", err)
	}
}

func TestIterRecordCountMismatch(t *testing.T) {
	tr := buildSample(t)
	tr.Meta.Records += 3 // claims more records than the payload holds
	it := tr.Iter()
	for it.Next() {
	}
	if err := it.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record overcount: err = %v, want ErrCorrupt", err)
	}
	tr2 := buildSample(t)
	tr2.Meta.Records -= 3 // payload longer than the claimed count
	it = tr2.Iter()
	for it.Next() {
	}
	if err := it.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record undercount: err = %v, want ErrCorrupt", err)
	}
}

func TestEncodeDecodeFileRoundTrip(t *testing.T) {
	tr := buildSample(t)
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != tr.Meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, tr.Meta)
	}
	if string(got.Payload) != string(tr.Payload) {
		t.Error("payload altered by file round trip")
	}
}

// TestDecodeFileBitFlips flips every byte of the encoded file in turn;
// the SHA-256 must catch each one as ErrCorrupt, never decode it.
func TestDecodeFileBitFlips(t *testing.T) {
	tr := buildSample(t)
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mangled := append([]byte(nil), b...)
		mangled[i] ^= 0x40
		if _, err := DecodeFile(mangled); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d not detected: err = %v", i, err)
		}
	}
}

func TestDecodeFileTruncated(t *testing.T) {
	tr := buildSample(t)
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, len(magic), len(b) / 2, len(b) - 1} {
		if _, err := DecodeFile(b[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestKeyHashMovesWithEveryField(t *testing.T) {
	base := Key{App: "Fasta", Variant: "original", Seed: 1, Scale: 1,
		ProgHash: "abc"}
	mutations := map[string]func(*Key){
		"app":     func(k *Key) { k.App = "Hmmer" },
		"variant": func(k *Key) { k.Variant = "combination" },
		"seed":    func(k *Key) { k.Seed = 2 },
		"scale":   func(k *Key) { k.Scale = 2 },
		"prog":    func(k *Key) { k.ProgHash = "def" },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range mutations {
		k := base
		mutate(&k)
		if prev, dup := seen[k.Hash()]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k.Hash()] = name
	}
}

func TestKeyMatches(t *testing.T) {
	k := Key{App: "Fasta", Variant: "original", Seed: 1, Scale: 1,
		ProgHash: "abc"}
	m := Meta{App: "Fasta", Variant: "original", Seed: 1, Scale: 1,
		ProgHash: "abc"}
	if !k.Matches(m) {
		t.Fatal("matching meta rejected")
	}
	m.ProgHash = "def"
	if k.Matches(m) {
		t.Fatal("mismatched program hash accepted")
	}
}
