package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"bioperf5/internal/compiler"
	"bioperf5/internal/cpu"
	"bioperf5/internal/isa"
	"bioperf5/internal/machine"
	"bioperf5/internal/trace"
)

// Compiled is one memoized compilation: the assembled program, the
// compiler's transformation statistics, the replay metadata derived
// from the program, and the program's content hash (which pins traces
// to the exact code they were captured from).  Compiled values are
// shared across callers and must be treated as read-only.
type Compiled struct {
	Prog  *isa.Program
	Stats *compiler.Stats
	Meta  []cpu.InsMeta
	Hash  string
}

var (
	compileMu    sync.Mutex
	compileCache = map[string]*Compiled{}
)

// CompileCached compiles the kernel for a variant, memoizing the result
// per (kernel, variant).  Compilation is deterministic, so every caller
// of the same cell shares one program, one stats block and one replay
// metadata table; errors are not cached and recompile on retry.
func CompileCached(k *Kernel, v Variant) (*Compiled, error) {
	key := k.Name + "\x00" + v.String()
	compileMu.Lock()
	c, ok := compileCache[key]
	compileMu.Unlock()
	if ok {
		return c, nil
	}

	prog, st, err := k.compile(v)
	if err != nil {
		return nil, err
	}
	h, err := hashProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	c = &Compiled{Prog: prog, Stats: st, Meta: cpu.ProgMeta(prog), Hash: h}

	compileMu.Lock()
	if prev, ok := compileCache[key]; ok {
		c = prev // a concurrent compile won; results are identical anyway
	} else {
		compileCache[key] = c
	}
	compileMu.Unlock()
	return c, nil
}

// hashProgram returns the hex SHA-256 of the program's machine code.
func hashProgram(p *isa.Program) (string, error) {
	words, err := p.EncodeAll()
	if err != nil {
		return "", err
	}
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// TraceKey returns the content address of the trace for one
// (kernel, variant, seed, scale) cell.  It compiles (cached) to obtain
// the program hash.  The key is predictor-free: direction predictors
// run live at replay time, so every predictor shares the cell's trace.
func TraceKey(k *Kernel, v Variant, seed int64, scale int) (trace.Key, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return trace.Key{}, err
	}
	return trace.Key{
		App:      k.App,
		Variant:  v.String(),
		Seed:     seed,
		Scale:    scale,
		ProgHash: c.Hash,
	}, nil
}

// CaptureTrace runs the kernel once on the functional machine and
// records the annotated dynamic trace: the same record stream the live
// timing path consumes, sent to a trace.Builder instead.  The
// functional result is verified before the trace is sealed, so a
// stored trace is always a trace of a correct execution.
func CaptureTrace(k *Kernel, v Variant, seed int64, scale int, limit uint64) (*trace.Trace, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return nil, err
	}
	run, err := k.NewRun(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	ann := trace.NewAnnotator()
	var b trace.Builder
	var r trace.Record
	if _, err := Stream(k, v, run, limit, func(d machine.DynInst) error {
		ann.Annotate(&r, d)
		b.Add(r)
		return nil
	}); err != nil {
		return nil, err
	}
	return b.Finish(trace.Meta{
		App:      k.App,
		Kernel:   k.Name,
		Variant:  v.String(),
		Seed:     seed,
		Scale:    scale,
		ProgHash: c.Hash,
		Result:   run.Want,
		LoadLat:  ann.LoadLat(),
	}), nil
}

// ReplayTrace feeds a stored trace through the timing model under cfg
// and returns the report.  The events are the ones the live path feeds
// for the same cell, so the counters and stall stack are bit-identical
// to SimulateObserved's.  A trace whose program hash does not match
// the current compilation, or whose payload decodes inconsistently, is
// rejected as corrupt.
func ReplayTrace(k *Kernel, v Variant, t *trace.Trace, cfg cpu.Config) (cpu.Report, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return cpu.Report{}, err
	}
	if t.Meta.ProgHash != c.Hash {
		return cpu.Report{}, fmt.Errorf("%w: trace for program %.12s, compiled %.12s",
			trace.ErrCorrupt, t.Meta.ProgHash, c.Hash)
	}
	rep, err := cpu.NewReplayer(timingConfig(v, cfg), t.Meta.LoadLat)
	if err != nil {
		return cpu.Report{}, err
	}
	var ev cpu.ReplayEvent
	it := t.Iter()
	for it.Next() {
		if !ev.Set(c.Meta, it.Rec()) {
			return rep.Report(), fmt.Errorf("%w: PC %d outside program of %d instructions",
				trace.ErrCorrupt, it.Rec().PC, len(c.Meta))
		}
		if err := rep.Consume(&ev); err != nil {
			return rep.Report(), fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
		}
	}
	if err := it.Err(); err != nil {
		return rep.Report(), err
	}
	return rep.Report(), nil
}
