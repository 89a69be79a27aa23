// Package guard implements self-healing training: numerical-fault
// detection (NaN/Inf scans, gradient-norm explosion, loss-spike z-scores,
// input-batch validation) wrapped around a trainer, with an escalating
// remediation policy — skip the poisoned batch, clip the gradient, back off
// the learning rate, and finally roll back to the last healthy checkpoint
// with a dampened optimizer. Every detection and remediation is recorded in
// a deterministic incident ledger, so a fault scenario replayed under the
// same seed produces a byte-identical audit trail.
package guard

import (
	"fmt"

	"dlsys/internal/fp"
)

// IncidentKind enumerates what a detector observed.
type IncidentKind uint8

// Detection classes, ordered by severity of what they imply.
const (
	KindBadBatch       IncidentKind = 1 + iota // input failed schema validation
	KindInputDrift                             // input stats drifted from reference (flag only)
	KindNonFiniteLoss                          // loss is NaN/Inf
	KindNonFiniteGrad                          // a gradient is NaN/Inf
	KindNonFiniteParam                         // a parameter went NaN/Inf after an update
	KindLossSpike                              // loss z-score exceeded threshold
	KindGradExplosion                          // gradient norm exploded vs rolling median
)

// String names the kind for logs and tables.
func (k IncidentKind) String() string {
	switch k {
	case KindBadBatch:
		return "bad-batch"
	case KindInputDrift:
		return "input-drift"
	case KindNonFiniteLoss:
		return "nonfinite-loss"
	case KindNonFiniteGrad:
		return "nonfinite-grad"
	case KindNonFiniteParam:
		return "nonfinite-param"
	case KindLossSpike:
		return "loss-spike"
	case KindGradExplosion:
		return "grad-explosion"
	}
	return "unknown"
}

// Action enumerates what the guard did about an incident.
type Action uint8

// Remediation actions, in escalation order.
const (
	ActionObserved  Action = 1 + iota // detected but not remediated (Observe mode)
	ActionFlagged                     // recorded only; no remediation warranted
	ActionSkipBatch                   // batch discarded before it touched parameters
	ActionClipGrad                    // gradient rescaled to the rolling median norm
	ActionBackoffLR                   // learning rate multiplied down
	ActionRollback                    // parameters restored from last healthy snapshot
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionObserved:
		return "observed"
	case ActionFlagged:
		return "flagged"
	case ActionSkipBatch:
		return "skip-batch"
	case ActionClipGrad:
		return "clip-grad"
	case ActionBackoffLR:
		return "backoff-lr"
	case ActionRollback:
		return "rollback"
	}
	return "unknown"
}

// Incident is one detection event and the guard's response to it.
type Incident struct {
	Step   int          // global step at which it was detected
	Kind   IncidentKind // what was detected
	Action Action       // what was done
	Value  float64      // the offending measurement (loss, norm, z-score, ...)
}

// String formats the incident for ledger printouts.
func (in Incident) String() string {
	return fmt.Sprintf("step %4d  %-15s → %-10s (%.4g)", in.Step, in.Kind, in.Action, in.Value)
}

// Ledger is the deterministic audit trail of a guarded training run.
type Ledger struct {
	Incidents []Incident

	// Counters, maintained by record for cheap summary access.
	Skipped   int // batches discarded
	Clipped   int // gradients clipped
	Backoffs  int // LR reductions
	Rollbacks int // checkpoint restores
	Drifts    int // input-drift flags
	Observed  int // incidents seen but not remediated
}

// record appends an incident and bumps the matching counter.
func (l *Ledger) record(in Incident) {
	l.Incidents = append(l.Incidents, in)
	switch in.Action {
	case ActionSkipBatch:
		l.Skipped++
	case ActionClipGrad:
		l.Clipped++
	case ActionBackoffLR:
		l.Backoffs++
	case ActionRollback:
		l.Rollbacks++
	case ActionFlagged:
		l.Drifts++
	case ActionObserved:
		l.Observed++
	}
}

// Len returns the number of recorded incidents.
func (l *Ledger) Len() int { return len(l.Incidents) }

// Fingerprint hashes the full incident sequence (steps, kinds, actions, and
// measured values) with FNV-1a. Two runs of the same seeded scenario must
// produce equal fingerprints — the replayability contract the X7 experiment
// asserts.
func (l *Ledger) Fingerprint() uint64 {
	h := fp.New()
	for _, in := range l.Incidents {
		h.Word(uint64(int64(in.Step)))
		h.Byte(byte(in.Kind))
		h.Byte(byte(in.Action))
		h.Float(in.Value)
	}
	return uint64(h)
}
