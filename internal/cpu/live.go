package cpu

import (
	"fmt"

	"bioperf5/internal/machine"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// Live times a functional execution as it runs.  Each machine step is
// annotated against a live cache hierarchy and handed to the embedded
// Replayer as the same ReplayEvent that decoding the step's trace
// record would produce; nothing is stored.  Capture is the same
// annotated stream sent to a trace.Builder instead.
type Live struct {
	*Replayer
	meta []InsMeta
	ann  *trace.Annotator
	rec  trace.Record
	ev   ReplayEvent
}

// NewLive builds a live timing path for cfg over a program's metadata.
func NewLive(cfg Config, meta []InsMeta) (*Live, error) {
	ann := trace.NewAnnotator()
	r, err := NewReplayer(cfg, ann.LoadLat())
	if err != nil {
		return nil, err
	}
	return &Live{Replayer: r, meta: meta, ann: ann}, nil
}

// Step annotates one dynamic instruction and consumes it.  Call it in
// execution order with every instruction the machine steps.
func (l *Live) Step(d machine.DynInst) error {
	l.ann.Annotate(&l.rec, d)
	if !l.ev.Set(l.meta, &l.rec) {
		return fmt.Errorf("cpu: PC %d outside program of %d instructions", l.rec.PC, len(l.meta))
	}
	return l.Consume(&l.ev)
}

// PublishTo mirrors the timing model's state and, since Live owns the
// cache hierarchy, the cache statistics into reg.
func (l *Live) PublishTo(reg *telemetry.Registry) {
	l.Replayer.PublishTo(reg)
	l.ann.PublishTo(reg)
}
