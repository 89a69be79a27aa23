package distributed

import (
	"sort"
	"strconv"

	"dlsys/internal/fault"
	"dlsys/internal/invalid"
)

// Validate rejects degenerate configurations with a typed *invalid.Error
// instead of letting them silently misbehave. NaN and ±Inf are rejected
// first, since every range comparison lets them through. Zero values mean
// "use the default" and always pass; negative values that a default clamp
// would otherwise hide are rejected. Train calls Validate before touching
// any state.
func (c Config) Validate() error {
	fields := []invalid.Field{invalid.F("LR", c.LR), invalid.F("TopK", c.TopK)}
	if r := c.Reputation; r != nil {
		fields = append(fields, invalid.F("Reputation.Decay", r.Decay),
			invalid.F("Reputation.Threshold", r.Threshold))
	}
	if err := invalid.Finite("distributed", fields...); err != nil {
		return err
	}
	if c.Workers < 1 {
		return invalid.New("distributed", "Workers", "%d < 1: need at least one worker", c.Workers)
	}
	if c.Epochs < 0 {
		return invalid.New("distributed", "Epochs", "%d is negative", c.Epochs)
	}
	if c.BatchSize < 1 {
		return invalid.New("distributed", "BatchSize", "%d < 1", c.BatchSize)
	}
	if err := c.Arch.Validate(); err != nil {
		return invalid.New("distributed", "Arch", "%v", err)
	}
	if c.LR < 0 {
		return invalid.New("distributed", "LR", "%g is negative", c.LR)
	}
	if c.AveragePeriod < 0 {
		return invalid.New("distributed", "AveragePeriod", "%d is negative", c.AveragePeriod)
	}
	if c.TopK < 0 {
		return invalid.New("distributed", "TopK", "%g is negative", c.TopK)
	}
	if c.QuantBits < 0 {
		return invalid.New("distributed", "QuantBits", "%d is negative", c.QuantBits)
	}
	if c.MaxRetries < 0 || c.MaxRetries > maxRetryCap {
		return invalid.New("distributed", "MaxRetries", "%d out of [0, %d]", c.MaxRetries, maxRetryCap)
	}
	if c.SnapshotPeriod < 0 {
		return invalid.New("distributed", "SnapshotPeriod", "%d is negative", c.SnapshotPeriod)
	}
	if c.DropSlowestK != 0 && (c.DropSlowestK < 0 || c.DropSlowestK >= c.Workers) {
		return invalid.New("distributed", "DropSlowestK", "%d out of [0, %d workers)", c.DropSlowestK, c.Workers)
	}
	if !c.Topology.valid() {
		return invalid.New("distributed", "Topology", "%q is not a known topology", string(c.Topology))
	}
	if err := c.validateChurn(); err != nil {
		return err
	}
	if c.Reputation != nil {
		r := *c.Reputation
		if r.Decay < 0 || r.Decay >= 1 {
			return invalid.New("distributed", "Reputation.Decay", "%g out of [0, 1)", r.Decay)
		}
		if r.Threshold < 0 {
			return invalid.New("distributed", "Reputation.Threshold", "%g is negative", r.Threshold)
		}
		if r.Patience < 0 {
			return invalid.New("distributed", "Reputation.Patience", "%d is negative", r.Patience)
		}
		if r.Probation < 0 {
			return invalid.New("distributed", "Reputation.Probation", "%d is negative", r.Probation)
		}
	}
	for i, win := range c.Fault.Schedule {
		prefix := "Fault.Schedule[" + strconv.Itoa(i) + "]"
		switch win.Kind {
		case fault.KindLRSpike, fault.KindArrival, fault.KindRetryStorm, fault.KindBrownout:
			// Only guard.Fit reads LRSpikeFactor, and only serve draws
			// arrivals, retry storms and brownouts, so no training path
			// fires such a window.
			return invalid.New("distributed", prefix+".Kind", "%v windows never fire in distributed training", win.Kind)
		}
		field := prefix + ".Workers"
		for _, w := range win.Workers {
			if w >= c.Workers {
				return invalid.New("distributed", field, "worker %d out of [0, %d workers)", w, c.Workers)
			}
		}
		// A collective sends no worker messages: it draws link faults per
		// hop, never Drops, and Corrupts only for snapshots, as worker −1.
		// So a message window that lists workers never fires there.
		if c.Topology != TopoDefault && win.Workers != nil && (win.Kind == fault.KindDrop || win.Kind == fault.KindCorrupt) {
			return invalid.New("distributed", field, "%v set on a %v window, which the %s collective never draws for a worker",
				win.Workers, win.Kind, c.Topology)
		}
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// maxRetryCap bounds MaxRetries: the backoff before attempt a is
// retryBackoff·2^(a−1) in int64 arithmetic, and at attempt 64 that term
// turns negative and cancels every earlier one.
const maxRetryCap = 64

// validateChurn rejects incoherent elastic-membership schedules: events
// referencing out-of-range workers or negative rounds, two events for one
// worker in the same round, and sequences that contradict themselves (a
// worker joining while present or leaving while absent — presence is
// inferred from each worker's earliest event, matching the runtime rule
// that a worker whose first event is a join starts the run absent).
func (c Config) validateChurn() error {
	byWorker := make(map[int][]ChurnEvent)
	for _, ev := range c.Churn {
		if ev.Worker < 0 || ev.Worker >= c.Workers {
			return invalid.New("distributed", "Churn", "worker %d out of [0, %d workers)", ev.Worker, c.Workers)
		}
		if ev.Round < 0 {
			return invalid.New("distributed", "Churn", "worker %d scheduled at negative round %d", ev.Worker, ev.Round)
		}
		byWorker[ev.Worker] = append(byWorker[ev.Worker], ev)
	}
	workers := make([]int, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		evs := byWorker[w]
		sort.Slice(evs, func(a, b int) bool { return evs[a].Round < evs[b].Round })
		for i := 1; i < len(evs); i++ {
			if evs[i].Round == evs[i-1].Round {
				return invalid.New("distributed", "Churn", "worker %d has two events at round %d", w, evs[i].Round)
			}
		}
		present := !evs[0].Join
		for _, ev := range evs {
			if ev.Join == present {
				verb := "joins while present"
				if !ev.Join {
					verb = "leaves while absent"
				}
				return invalid.New("distributed", "Churn", "worker %d %s at round %d", w, verb, ev.Round)
			}
			present = ev.Join
		}
	}
	return nil
}
