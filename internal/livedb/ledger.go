package livedb

import (
	"fmt"

	"dlsys/internal/fp"
)

// EventKind enumerates the maintenance events the engine ledgers.
type EventKind uint8

// Maintenance event classes, in lifecycle order.
const (
	EvRetrainStart EventKind = 1 + iota // monitoring tripped; candidate build began
	EvSwap                              // candidate validated and atomically installed
	EvRollback                          // candidate rejected; last-good snapshot restored
	EvCooldownEnd                       // post-rollback distrust window elapsed
)

// String names the kind for ledger printouts.
func (k EventKind) String() string {
	switch k {
	case EvRetrainStart:
		return "retrain-start"
	case EvSwap:
		return "swap"
	case EvRollback:
		return "rollback"
	case EvCooldownEnd:
		return "cooldown-end"
	}
	return "unknown"
}

// Entry is one ledgered maintenance event.
type Entry struct {
	T      float64   // simulated time of the event
	Kind   EventKind // what happened
	Reason string    // trigger or rejection reason ("delta-fraction", "schema: ...")
	N      int       // kind-specific count (key-set size, quarantined keys)
	Value  float64   // kind-specific measurement (FPR at trigger, declared window)
}

// String formats the entry for tables and logs.
func (e Entry) String() string {
	return fmt.Sprintf("t=%.3f %-13s %-24s n=%d v=%.4g", e.T, e.Kind, e.Reason, e.N, e.Value)
}

// Ledger is the deterministic audit trail of every retrain, swap, rollback,
// and cooldown the maintenance actor performed. Its counters must reconcile
// exactly with the engine's obs counters — the X11 invariant — and its
// fingerprint is one of the replay triple the experiment asserts
// bit-identical across runs.
type Ledger struct {
	Entries []Entry
}

// add appends one event.
func (l *Ledger) add(e Entry) { l.Entries = append(l.Entries, e) }

// Len returns the number of recorded events.
func (l *Ledger) Len() int { return len(l.Entries) }

// Count returns how many entries have the given kind.
func (l *Ledger) Count(k EventKind) int {
	n := 0
	for _, e := range l.Entries {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// SumN totals the N field over entries of the given kind (e.g. total keys
// quarantined across every rollback).
func (l *Ledger) SumN(k EventKind) int {
	n := 0
	for _, e := range l.Entries {
		if e.Kind == k {
			n += e.N
		}
	}
	return n
}

// First returns the earliest entry of the given kind with the given reason
// ("" matches any reason).
func (l *Ledger) First(k EventKind, reason string) (Entry, bool) {
	for _, e := range l.Entries {
		if e.Kind == k && (reason == "" || e.Reason == reason) {
			return e, true
		}
	}
	return Entry{}, false
}

// Fingerprint hashes the full event sequence — times, kinds, reasons,
// counts, and measurements — with FNV-1a. Two runs of the same seeded
// scenario must produce equal fingerprints.
func (l *Ledger) Fingerprint() uint64 {
	h := fp.New()
	for _, e := range l.Entries {
		h.Float(e.T)
		h.Byte(byte(e.Kind))
		h.String(e.Reason)
		h.Word(uint64(int64(e.N)))
		h.Float(e.Value)
	}
	return uint64(h)
}
