package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bioperf5/internal/cache"
	"bioperf5/internal/machine"
	"bioperf5/internal/telemetry"
)

// Annotator turns the functional machine's dynamic instruction stream
// into annotated records.  It runs the fixed POWER5 data hierarchy in
// program order, so every memory access carries the miss level the
// timing model charges for it.  The one record stream has two
// consumers: the live timing path turns each record into a
// cpu.ReplayEvent on the spot and stores nothing, and capture appends
// the records to a Builder.  Branch prediction is not annotated:
// direction predictors and the BTAC run in the timing model, which is
// what lets one trace serve the whole predictor zoo.
type Annotator struct {
	mem *cache.Hierarchy
}

// NewAnnotator returns an annotator over the fixed POWER5 data
// hierarchy.
func NewAnnotator() *Annotator {
	return &Annotator{mem: cache.NewPOWER5Hierarchy()}
}

// Annotate fills r with the annotated record of one dynamic
// instruction.  Call it in execution order with every instruction the
// machine steps.
func (a *Annotator) Annotate(r *Record, d machine.DynInst) {
	*r = Record{PC: d.Index, Next: d.Next, Taken: d.Taken}
	if d.Ins.IsLoad() || d.Ins.IsStore() {
		r.HasEA, r.EA = true, d.EA
		r.MissLevel = a.mem.Lookup(d.EA)
	}
}

// LoadLat returns the hierarchy's load-to-use latency per miss level.
// Capture stamps it into the trace meta so replay charges exactly the
// latencies the live path charges.
func (a *Annotator) LoadLat() [3]int {
	return [3]int{a.mem.LevelLatency(0), a.mem.LevelLatency(1), a.mem.LevelLatency(2)}
}

// PublishTo mirrors the hierarchy's statistics into reg.
func (a *Annotator) PublishTo(reg *telemetry.Registry) { a.mem.PublishTo(reg) }

// keySchema versions the trace content address; bump it when the
// meaning of a key field changes.  Schema 2 dropped the predictor from
// the key: traces are predictor-agnostic as of format version 2.
const keySchema = 2

// Key is the content identity of a trace: everything the dynamic
// instruction stream and its annotations depend on — and nothing the
// timing sweep varies.  Cells differing only in FXU count, BTAC sizing,
// predictor choice or pipeline penalties share one Key, which is the
// entire point.
type Key struct {
	App      string
	Variant  string
	Seed     int64
	Scale    int
	ProgHash string
}

// KeyFromMeta reconstructs the content key a trace answers.  Every Key
// field is stored in the file's meta, which is what lets a remote tier
// verify an uploaded trace against the address it claims: decode,
// rebuild the key, hash, compare.
func KeyFromMeta(m Meta) Key {
	return Key{
		App:      m.App,
		Variant:  m.Variant,
		Seed:     m.Seed,
		Scale:    m.Scale,
		ProgHash: m.ProgHash,
	}
}

// Matches reports whether a trace's meta answers this key.
func (k Key) Matches(m Meta) bool {
	return m.App == k.App && m.Variant == k.Variant && m.Seed == k.Seed &&
		m.Scale == k.Scale && m.ProgHash == k.ProgHash
}

// Hash returns the key's content address: the hex SHA-256 of its
// canonical JSON encoding.
func (k Key) Hash() string {
	b, err := json.Marshal(struct {
		Schema int `json:"schema"`
		Key
	}{Schema: keySchema, Key: k})
	if err != nil {
		panic(fmt.Sprintf("trace: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
