// Package trace implements the capture-once/replay-many dynamic-trace
// subsystem.  The paper's methodology is trace-driven: one dynamic
// instruction stream per (kernel, variant, seed, scale) is evaluated
// under many core configurations, so the functional execution — and
// everything else that is invariant across the timing sweep — should be
// paid for exactly once.
//
// A trace records, per dynamic instruction: the PC (delta-encoded), the
// branch direction, the effective address of a memory access (zig-zag
// delta varint), and one annotation that is itself invariant across
// the timing configurations the sweeps vary (FXU count, BTAC sizing,
// predictor choice, pipeline penalties): the cache miss level of a
// memory access (L1 hit / L2 hit / memory) — the data hierarchy is
// fixed, so the miss sequence depends only on the address stream.
//
// Replay therefore needs neither the functional machine nor the cache:
// only the branch predictors — the direction predictor and the BTAC,
// whose choice and geometry the sweeps vary — stay live in the timing
// model.  Every direction predictor is a deterministic function of the
// (pc, taken) sequence the trace records, which is why one capture
// serves the whole predictor zoo: the predictor is timing
// configuration, not trace identity.  The op class, register uses and
// defs, latencies and branch targets are static per PC and come from
// the compiled program, which the trace pins by content hash.
//
// Traces are versioned, checksummed (SHA-256 over the whole file) and
// content-addressed by Key; Store adds an in-memory LRU with a byte
// budget plus an on-disk tier with corruption detection.
package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// FormatVersion versions the record encoding and the file layout; bump
// it whenever either changes so stale files are recaptured, never
// misparsed.  Version 2 moved the direction predictor live into the
// replayer: records no longer carry a per-predictor verdict bit and
// trace identity no longer includes a predictor name.
const FormatVersion = 2

// magic opens every trace file.
var magic = []byte("BP5TRACE\x01")

// ErrCorrupt marks a trace file that failed structural or checksum
// verification; callers fall back to a fresh capture.
var ErrCorrupt = errors.New("trace: corrupt trace")

// Meta describes what a trace is a trace of.  It is stored as JSON in
// the file header and verified against the requested Key on load.
type Meta struct {
	Schema   int    `json:"schema"`
	App      string `json:"app"`     // application (Fasta, ...)
	Kernel   string `json:"kernel"`  // kernel function name (dropgsw, ...)
	Variant  string `json:"variant"` // predication variant name
	Seed     int64  `json:"seed"`
	Scale    int    `json:"scale"`
	ProgHash string `json:"prog_hash"` // content hash of the compiled program
	Records  uint64 `json:"records"`   // dynamic instruction count
	Result   int64  `json:"result"`    // functional result, verified at capture
	LoadLat  [3]int `json:"load_lat"`  // load-to-use latency per miss level
}

// Record is one decoded dynamic instruction.  Next is derived by the
// iterator from the following record's PC (the final record of a halted
// execution has Next == PC, matching machine.DynInst's halt convention).
type Record struct {
	PC        int
	Next      int
	Taken     bool // branches: direction
	HasEA     bool // memory op: EA is meaningful
	EA        uint64
	MissLevel uint8 // memory op: 0 L1 hit, 1 L2 hit, 2 memory
}

// Record head layout: uvarint( zigzag(pcDelta)<<4 | flags ), where the
// flag bits are Taken, HasEA, and the two-bit miss level (memory ops).
// A HasEA record is followed by uvarint(zigzag(eaDelta)).
const (
	flagTaken     = 1 << 0
	flagHasEA     = 1 << 1
	flagMissShift = 2 // bits 2-3: miss level
	headShift     = 4
)

// Trace is one captured execution: its identity plus the encoded
// record payload.
type Trace struct {
	Meta    Meta
	Payload []byte
}

// SizeBytes approximates the trace's in-memory footprint for the
// store's byte budget.
func (t *Trace) SizeBytes() int64 { return int64(len(t.Payload)) + 256 }

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Builder accumulates records into an encoded payload.
type Builder struct {
	payload []byte
	prevPC  int
	prevEA  uint64
	n       uint64
}

// Add appends one record (Next is ignored; it is derived on decode).
func (b *Builder) Add(r Record) {
	flags := uint64(0)
	if r.Taken {
		flags |= flagTaken
	}
	if r.HasEA {
		flags |= flagHasEA
		flags |= uint64(r.MissLevel) << flagMissShift
	}
	head := zigzag(int64(r.PC-b.prevPC))<<headShift | flags
	b.payload = binary.AppendUvarint(b.payload, head)
	b.prevPC = r.PC
	if r.HasEA {
		b.payload = binary.AppendUvarint(b.payload, zigzag(int64(r.EA-b.prevEA)))
		b.prevEA = r.EA
	}
	b.n++
}

// Len returns the number of records added so far.
func (b *Builder) Len() uint64 { return b.n }

// Finish seals the payload into a Trace carrying meta (Schema and
// Records are filled in).
func (b *Builder) Finish(meta Meta) *Trace {
	meta.Schema = FormatVersion
	meta.Records = b.n
	return &Trace{Meta: meta, Payload: b.payload}
}

// Iter walks a trace's records in order, deriving each record's Next
// from its successor.  Check Err after the loop: a payload that runs
// short or long against Meta.Records reports corruption.
type Iter struct {
	buf    []byte
	pos    int
	total  uint64
	i      uint64
	prevPC int
	prevEA uint64
	cur    Record
	nxt    Record
	err    error
}

// Iter returns an iterator positioned before the first record.
func (t *Trace) Iter() *Iter {
	it := &Iter{buf: t.Payload, total: t.Meta.Records}
	if it.total > 0 {
		it.nxt, it.err = it.decode()
	}
	return it
}

// decode reads one record at the current position.
func (it *Iter) decode() (Record, error) {
	head, n := binary.Uvarint(it.buf[it.pos:])
	if n <= 0 {
		return Record{}, fmt.Errorf("%w: truncated record head at offset %d", ErrCorrupt, it.pos)
	}
	it.pos += n
	var r Record
	r.PC = it.prevPC + int(unzigzag(head>>headShift))
	it.prevPC = r.PC
	r.Taken = head&flagTaken != 0
	r.HasEA = head&flagHasEA != 0
	if r.HasEA {
		r.MissLevel = uint8(head>>flagMissShift) & 3
		delta, n := binary.Uvarint(it.buf[it.pos:])
		if n <= 0 {
			return Record{}, fmt.Errorf("%w: truncated EA at offset %d", ErrCorrupt, it.pos)
		}
		it.pos += n
		r.EA = it.prevEA + uint64(unzigzag(delta))
		it.prevEA = r.EA
	}
	return r, nil
}

// Next advances to the next record; it returns false at the end of the
// trace or on a decoding error (see Err).
func (it *Iter) Next() bool {
	if it.err != nil || it.i >= it.total {
		return false
	}
	it.cur = it.nxt
	it.i++
	if it.i < it.total {
		it.nxt, it.err = it.decode()
		if it.err != nil {
			return false
		}
		it.cur.Next = it.nxt.PC
	} else {
		// Final record of a halted execution: no successor.
		it.cur.Next = it.cur.PC
		if it.pos != len(it.buf) {
			it.err = fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(it.buf)-it.pos)
			return false
		}
	}
	return true
}

// Rec returns the current record.
func (it *Iter) Rec() *Record { return &it.cur }

// Err reports a decoding failure, including a record count that does
// not match the payload.
func (it *Iter) Err() error {
	if it.err == nil && it.i < it.total && it.pos >= len(it.buf) {
		return fmt.Errorf("%w: payload ends after %d of %d records", ErrCorrupt, it.i, it.total)
	}
	return it.err
}

// EncodeFile serializes the trace into its durable file form:
//
//	magic | uvarint(len(meta JSON)) | meta JSON | uvarint(len(payload)) |
//	payload | SHA-256 over everything preceding
func (t *Trace) EncodeFile() ([]byte, error) {
	mb, err := json.Marshal(t.Meta)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(magic)+len(mb)+len(t.Payload)+48)
	out = append(out, magic...)
	out = binary.AppendUvarint(out, uint64(len(mb)))
	out = append(out, mb...)
	out = binary.AppendUvarint(out, uint64(len(t.Payload)))
	out = append(out, t.Payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

// DecodeFile parses and verifies a trace file.  Any structural damage —
// wrong magic, bad lengths, schema mismatch, checksum mismatch — is
// reported as ErrCorrupt.
func DecodeFile(b []byte) (*Trace, error) {
	if len(b) < len(magic)+sha256.Size || !bytes.Equal(b[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: bad magic or short file", ErrCorrupt)
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	pos := len(magic)
	// Lengths are bounded against the body before any int conversion:
	// a uvarint of 2^63 or more would otherwise turn negative.
	mlen, n := binary.Uvarint(body[pos:])
	if n <= 0 || mlen > uint64(len(body)-pos-n) {
		return nil, fmt.Errorf("%w: bad meta length", ErrCorrupt)
	}
	pos += n
	var meta Meta
	if err := json.Unmarshal(body[pos:pos+int(mlen)], &meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	pos += int(mlen)
	if meta.Schema != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, meta.Schema, FormatVersion)
	}
	plen, n := binary.Uvarint(body[pos:])
	if n <= 0 || plen != uint64(len(body)-pos-n) {
		return nil, fmt.Errorf("%w: bad payload length", ErrCorrupt)
	}
	pos += n
	return &Trace{Meta: meta, Payload: body[pos:]}, nil
}
