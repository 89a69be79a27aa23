package distributed

import (
	"fmt"
	"math"
	"sort"
)

// ConfigError is a typed validation failure for a degenerate Config field:
// which field, and why its value cannot run.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("distributed: config %s %s", e.Field, e.Reason)
}

// Validate rejects degenerate configurations with typed errors instead of
// letting them silently misbehave. Zero values mean "use the default" and
// always pass; negative values that a default clamp would otherwise hide
// are rejected, and so are NaN and ±Inf, which every range comparison lets
// through. Train calls Validate before touching any state.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return &ConfigError{"Workers", fmt.Sprintf("%d < 1: need at least one worker", c.Workers)}
	}
	if c.Epochs < 0 {
		return &ConfigError{"Epochs", fmt.Sprintf("%d is negative", c.Epochs)}
	}
	if c.BatchSize < 1 {
		return &ConfigError{"BatchSize", fmt.Sprintf("%d < 1", c.BatchSize)}
	}
	if c.LR < 0 || notFinite(c.LR) {
		return &ConfigError{"LR", fmt.Sprintf("%g is negative or not finite", c.LR)}
	}
	if c.AveragePeriod < 0 {
		return &ConfigError{"AveragePeriod", fmt.Sprintf("%d is negative", c.AveragePeriod)}
	}
	if c.TopK < 0 || notFinite(c.TopK) {
		return &ConfigError{"TopK", fmt.Sprintf("%g is negative or not finite", c.TopK)}
	}
	if c.QuantBits < 0 {
		return &ConfigError{"QuantBits", fmt.Sprintf("%d is negative", c.QuantBits)}
	}
	if c.MaxRetries < 0 || c.MaxRetries > maxRetryCap {
		return &ConfigError{"MaxRetries", fmt.Sprintf("%d out of [0, %d]", c.MaxRetries, maxRetryCap)}
	}
	if c.RetryBackoffS < 0 || notFinite(c.RetryBackoffS) {
		return &ConfigError{"RetryBackoffS", fmt.Sprintf("%g is negative or not finite", c.RetryBackoffS)}
	}
	if c.SnapshotPeriod < 0 {
		return &ConfigError{"SnapshotPeriod", fmt.Sprintf("%d is negative", c.SnapshotPeriod)}
	}
	if c.DropSlowestK != 0 && (c.DropSlowestK < 0 || c.DropSlowestK >= c.Workers) {
		return &ConfigError{"DropSlowestK", fmt.Sprintf("%d out of [0, %d workers)", c.DropSlowestK, c.Workers)}
	}
	if !c.Topology.valid() {
		return &ConfigError{"Topology", fmt.Sprintf("%q is not a known topology", string(c.Topology))}
	}
	if c.GroupSize != 0 && c.GroupSize < 2 {
		return &ConfigError{"GroupSize", fmt.Sprintf("%d < 2: a hierarchical group needs at least two members", c.GroupSize)}
	}
	if c.SnapshotKeep < 0 {
		return &ConfigError{"SnapshotKeep", fmt.Sprintf("%d is negative", c.SnapshotKeep)}
	}
	if err := c.validateChurn(); err != nil {
		return err
	}
	if c.Reputation != nil {
		r := *c.Reputation
		if math.IsNaN(r.Decay) || r.Decay != 0 && (r.Decay < 0 || r.Decay >= 1) {
			return &ConfigError{"Reputation.Decay", fmt.Sprintf("%g out of [0, 1)", r.Decay)}
		}
		if r.Threshold < 0 || notFinite(r.Threshold) {
			return &ConfigError{"Reputation.Threshold", fmt.Sprintf("%g is negative or not finite", r.Threshold)}
		}
		if r.Patience < 0 {
			return &ConfigError{"Reputation.Patience", fmt.Sprintf("%d is negative", r.Patience)}
		}
		if r.Probation < 0 {
			return &ConfigError{"Reputation.Probation", fmt.Sprintf("%d is negative", r.Probation)}
		}
	}
	for _, w := range c.Fault.ByzantineWorkers {
		if w >= c.Workers {
			return &ConfigError{"Fault.ByzantineWorkers", fmt.Sprintf("worker %d out of [0, %d workers)", w, c.Workers)}
		}
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// maxRetryCap bounds MaxRetries: the backoff before attempt a is
// RetryBackoffS·2^(a−1) in int64 arithmetic, and at attempt 64 that term
// turns negative and cancels every earlier one.
const maxRetryCap = 64

// notFinite reports NaN and ±Inf, which every range comparison lets through.
func notFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

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
			return &ConfigError{"Churn", fmt.Sprintf("worker %d out of [0, %d workers)", ev.Worker, c.Workers)}
		}
		if ev.Round < 0 {
			return &ConfigError{"Churn", fmt.Sprintf("worker %d scheduled at negative round %d", ev.Worker, ev.Round)}
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
				return &ConfigError{"Churn", fmt.Sprintf("worker %d has two events at round %d", w, evs[i].Round)}
			}
		}
		present := !evs[0].Join
		for _, ev := range evs {
			if ev.Join == present {
				verb := "joins while present"
				if !ev.Join {
					verb = "leaves while absent"
				}
				return &ConfigError{"Churn", fmt.Sprintf("worker %d %s at round %d", w, verb, ev.Round)}
			}
			present = ev.Join
		}
	}
	return nil
}
