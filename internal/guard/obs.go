package guard

import (
	"dlsys/internal/obs"
)

// guardObs holds the pre-resolved instruments for one guarded run. Counter
// names mirror the Ledger summary counters one-to-one, and
// Ledger.Reconcile checks them. Every field is a nil no-op for an
// un-instrumented run.
type guardObs struct {
	h *obs.Handle

	incidents                     *obs.Counter
	skipped, clipped, backoffs    *obs.Counter
	rollbacks, drifts, observedCt *obs.Counter
}

func newGuardObs(h *obs.Handle) *guardObs {
	return &guardObs{
		h:          h,
		incidents:  h.Counter("guard.incidents"),
		skipped:    h.Counter("guard.skipped"),
		clipped:    h.Counter("guard.clipped"),
		backoffs:   h.Counter("guard.backoffs"),
		rollbacks:  h.Counter("guard.rollbacks"),
		drifts:     h.Counter("guard.drifts"),
		observedCt: h.Counter("guard.observed"),
	}
}

// record mirrors one incident into the metrics, matching Ledger.record's
// switch exactly, and emits a zero-width rollback span on the guard's
// virtual clock (the global step counter).
func (o *guardObs) record(in Incident) {
	o.incidents.Inc()
	switch in.Action {
	case ActionSkipBatch:
		o.skipped.Inc()
	case ActionClipGrad:
		o.clipped.Inc()
	case ActionBackoffLR:
		o.backoffs.Inc()
	case ActionRollback:
		o.rollbacks.Inc()
		o.h.Emit("guard.rollback", float64(in.Step), float64(in.Step))
	case ActionFlagged:
		o.drifts.Inc()
	case ActionObserved:
		o.observedCt.Inc()
	}
}

// Reconcile checks the run's instruments on h against the ledger — every
// guard.* counter and one guard.rollback span per rollback — and returns
// one error naming every mismatch and every unchecked guard.* counter.
// Reading h creates nothing.
func (l *Ledger) Reconcile(h *obs.Handle) error {
	r := obs.NewReconciler(h, "guard.")
	r.Counter("guard.incidents", int64(l.Len()))
	r.Counter("guard.skipped", int64(l.Skipped))
	r.Counter("guard.clipped", int64(l.Clipped))
	r.Counter("guard.backoffs", int64(l.Backoffs))
	r.Counter("guard.rollbacks", int64(l.Rollbacks))
	r.Counter("guard.drifts", int64(l.Drifts))
	r.Counter("guard.observed", int64(l.Observed))
	r.Spans("guard.rollback", l.Rollbacks)
	return r.Err()
}
