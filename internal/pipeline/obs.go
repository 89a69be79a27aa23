package pipeline

import (
	"dlsys/internal/obs"
)

// pipeObs holds the pre-resolved instruments for one pipeline run. The
// stage/degradation counters mirror the Ledger's Stages/Degraded lists
// one-to-one — Ledger.Reconcile checks them — and each
// executed stage gets a child span on an ordinal clock (stage index), the
// pipeline's only deterministic notion of time before device seconds are
// derived at the end.
type pipeObs struct {
	h *obs.Handle

	stages, degraded     *obs.Counter
	incidents, rollbacks *obs.Counter

	root *obs.Span
}

func newPipeObs(h *obs.Handle) *pipeObs {
	return &pipeObs{
		h:         h,
		stages:    h.Counter("pipeline.stages"),
		degraded:  h.Counter("pipeline.degraded"),
		incidents: h.Counter("pipeline.incidents"),
		rollbacks: h.Counter("pipeline.rollbacks"),
		root:      h.Start("pipeline.run", 0),
	}
}

// stage records one executed (or failed-and-fallen-back) stage: the counter
// mirrors the Ledger.Stages append and the span covers [idx, idx+1] on the
// ordinal stage clock.
func (o *pipeObs) stage(name string, idx int) {
	o.stages.Inc()
	sp := o.root.Child("pipeline.stage."+name, float64(idx))
	sp.End(float64(idx + 1))
}

// finish closes the root span at the final stage count.
func (o *pipeObs) finish(stageCount int) {
	o.root.End(float64(stageCount))
}

// Reconcile checks the run's instruments on h against the ledger — every
// pipeline.* counter, one pipeline.stage.* span per stage, and the guarded
// training stage's guard.incidents on the shared handle — and returns one
// error naming every mismatch and every unchecked pipeline.* counter.
// Reading h creates nothing.
func (l Ledger) Reconcile(h *obs.Handle) error {
	r := obs.NewReconciler(h, "pipeline.")
	r.Counter("pipeline.stages", int64(len(l.Stages)))
	r.Counter("pipeline.degraded", int64(len(l.Degraded)))
	r.Counter("pipeline.incidents", int64(l.Incidents))
	r.Counter("pipeline.rollbacks", int64(l.Rollbacks))
	r.Counter("guard.incidents", int64(l.Incidents))
	r.Spans("pipeline.stage.", len(l.Stages))
	return r.Err()
}
