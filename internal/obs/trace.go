package obs

import (
	"sync"

	"dlsys/internal/fp"
)

// SpanRecord is one finished (or still-open, EndS < StartS) span as stored
// by the tracer. IDs are assigned in Start order, so a deterministic
// sequence of Start/Child/End calls produces a byte-identical record list.
type SpanRecord struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // simulated seconds (or virtual steps)
	EndS   float64 `json:"end_s"`
}

// Tracer records parent/child spans stamped from the simulators' virtual
// clocks (device.SendTime accumulations, the serving loop's arrival clock,
// the guard's step index). It never reads wall-clock time, so a replayed
// same-seed scenario reproduces the identical trace — Fingerprint makes
// that assertable, like the guard ledger's replay contract. A nil *Tracer
// (and the nil *Span it hands out) is a valid no-op.
type Tracer struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is a live handle onto one tracer record.
type Span struct {
	tr  *Tracer
	idx int
}

func (t *Tracer) start(name string, parent int, startS float64) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := len(t.spans)
	t.spans = append(t.spans, SpanRecord{
		ID: idx, Parent: parent, Name: name, StartS: startS, EndS: startS - 1,
	})
	return &Span{tr: t, idx: idx}
}

// Start opens a root span at the given simulated time.
func (t *Tracer) Start(name string, startS float64) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, -1, startS)
}

// Emit records an already-finished root span in one call — the cheap path
// for event-shaped spans (a served request, a rollback) whose end time is
// known when they are recorded: one lock, no live handle allocated.
func (t *Tracer) Emit(name string, startS, endS float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, SpanRecord{
		ID: len(t.spans), Parent: -1, Name: name, StartS: startS, EndS: endS,
	})
	t.mu.Unlock()
}

// Child opens a span parented under s at the given simulated time.
func (s *Span) Child(name string, startS float64) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s.idx, startS)
}

// End closes the span at the given simulated time.
func (s *Span) End(endS float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.idx].EndS = endS
	s.tr.mu.Unlock()
}

// Len returns the number of recorded spans (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans in ID order (nil on nil).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// Fingerprint hashes the full span sequence (IDs, parents, names, start and
// end stamps) with FNV-1a. Two same-seed runs of an instrumented scenario
// must produce equal fingerprints — the replay contract experiment X8
// asserts.
func (t *Tracer) Fingerprint() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := fp.New()
	for _, s := range t.spans {
		h.Word(uint64(int64(s.ID)))
		h.Word(uint64(int64(s.Parent)))
		h.String(s.Name)
		h.Float(s.StartS)
		h.Float(s.EndS)
	}
	return uint64(h)
}
