package distributed

import (
	"fmt"

	"dlsys/internal/obs"
)

// distObs holds the pre-resolved observability instruments for one Train
// run. Instruments are resolved once up front (never in the hot loop), and
// every field is a nil no-op when the run is un-instrumented, so call sites
// stay unconditional. Counter and gauge names mirror the Stats fields
// one-to-one, and Stats.Reconcile checks them.
type distObs struct {
	h *obs.Handle

	retrans, drops, corrupts, timeouts     *obs.Counter
	crashes, rejoins, restores, snapshots  *obs.Counter
	stragglerRounds, excludedSlow          *obs.Counter
	numFaults, guardSkipped, guardRestores *obs.Counter
	byzAttacks, quarExcluded               *obs.Counter
	quarantines, readmissions              *obs.Counter
	rounds, steps                          *obs.Counter
	bytesSent, snapshotBytes               *obs.Counter
	linkDropped, linkSlowHops              *obs.Counter
	linkExcluded, partRounds               *obs.Counter
	topoHeals, topoDegraded                *obs.Counter
	epochs, joins, leaves, catchups        *obs.Counter
	commRounds                             *obs.Counter
	simSeconds, aggSeconds                 *obs.Gauge
	commSeconds                            *obs.Gauge

	stepSeconds []*obs.Histogram // per-worker compute time, worker-id order
}

// stepBuckets spans microsecond-to-minute simulated step times, wide enough
// for straggle factors on any catalog device.
var stepBuckets = obs.ExpBuckets(1e-6, 4, 14)

// newDistObs resolves the run's instruments. With a nil handle every field
// resolves to a nil instrument and all updates are no-op branches.
func newDistObs(h *obs.Handle, workers int) *distObs {
	d := &distObs{
		h:               h,
		retrans:         h.Counter("distributed.retransmissions"),
		drops:           h.Counter("distributed.dropped_messages"),
		corrupts:        h.Counter("distributed.corruptions"),
		timeouts:        h.Counter("distributed.timeouts"),
		crashes:         h.Counter("distributed.crashes"),
		rejoins:         h.Counter("distributed.rejoins"),
		restores:        h.Counter("distributed.restores"),
		snapshots:       h.Counter("distributed.snapshots"),
		stragglerRounds: h.Counter("distributed.straggler_rounds"),
		excludedSlow:    h.Counter("distributed.excluded_slow"),
		numFaults:       h.Counter("distributed.numerical_faults"),
		guardSkipped:    h.Counter("distributed.guard_skipped"),
		guardRestores:   h.Counter("distributed.guard_restores"),
		byzAttacks:      h.Counter("distributed.byzantine_attacks"),
		quarExcluded:    h.Counter("distributed.quarantine_excluded"),
		quarantines:     h.Counter("distributed.quarantines"),
		readmissions:    h.Counter("distributed.readmissions"),
		rounds:          h.Counter("distributed.averaging_rounds"),
		steps:           h.Counter("distributed.steps"),
		bytesSent:       h.Counter("distributed.bytes_sent"),
		snapshotBytes:   h.Counter("distributed.snapshot_bytes"),
		linkDropped:     h.Counter("distributed.link_dropped"),
		linkSlowHops:    h.Counter("distributed.link_slow_hops"),
		linkExcluded:    h.Counter("distributed.link_excluded"),
		partRounds:      h.Counter("distributed.partitioned_rounds"),
		topoHeals:       h.Counter("distributed.topo_heals"),
		topoDegraded:    h.Counter("distributed.topo_degraded"),
		epochs:          h.Counter("distributed.membership_epochs"),
		joins:           h.Counter("distributed.joins"),
		leaves:          h.Counter("distributed.leaves"),
		catchups:        h.Counter("distributed.catchups"),
		commRounds:      h.Counter("distributed.comm_rounds"),
		simSeconds:      h.Gauge("distributed.sim_seconds"),
		aggSeconds:      h.Gauge("distributed.agg_seconds"),
		commSeconds:     h.Gauge("distributed.comm_seconds"),
	}
	d.stepSeconds = make([]*obs.Histogram, workers)
	for w := range d.stepSeconds {
		if h != nil {
			d.stepSeconds[w] = h.Histogram(fmt.Sprintf("distributed.worker%02d.step_seconds", w), stepBuckets)
		}
	}
	return d
}

// span opens a root span on the run's tracer (nil-safe).
func (d *distObs) span(name string, startS float64) *obs.Span {
	return d.h.Start(name, startS)
}

// observeSteps records each worker's simulated compute seconds for the
// round, in worker-id order so the histogram sums are bit-deterministic.
func (d *distObs) observeSteps(results []gradResult) {
	for _, r := range results {
		d.stepSeconds[r.wk.id].Observe(r.seconds)
	}
}

// Reconcile checks the run's instruments on h against s — every counter
// and gauge equals its Stats field exactly, and one distributed.train span
// — and returns one error naming every mismatch and every unchecked
// distributed.* counter. Reading h creates nothing.
func (s Stats) Reconcile(h *obs.Handle) error {
	r := obs.NewReconciler(h, "distributed.")
	r.Counter("distributed.retransmissions", int64(s.Retransmissions))
	r.Counter("distributed.dropped_messages", int64(s.DroppedMessages))
	r.Counter("distributed.corruptions", int64(s.Corruptions))
	r.Counter("distributed.timeouts", int64(s.Timeouts))
	r.Counter("distributed.crashes", int64(s.Crashes))
	r.Counter("distributed.rejoins", int64(s.Rejoins))
	r.Counter("distributed.restores", int64(s.Restores))
	r.Counter("distributed.snapshots", int64(s.Snapshots))
	r.Counter("distributed.straggler_rounds", int64(s.StragglerRounds))
	r.Counter("distributed.excluded_slow", int64(s.ExcludedSlow))
	r.Counter("distributed.numerical_faults", int64(s.NumericalFaults))
	r.Counter("distributed.guard_skipped", int64(s.GuardSkipped))
	r.Counter("distributed.guard_restores", int64(s.GuardRestores))
	r.Counter("distributed.byzantine_attacks", int64(s.ByzantineAttacks))
	r.Counter("distributed.quarantine_excluded", int64(s.QuarantineExcluded))
	r.Counter("distributed.quarantines", int64(s.Quarantines))
	r.Counter("distributed.readmissions", int64(s.Readmissions))
	r.Counter("distributed.averaging_rounds", int64(s.AveragingRound))
	r.Counter("distributed.steps", int64(s.Steps))
	r.Counter("distributed.bytes_sent", s.BytesSent)
	r.Counter("distributed.snapshot_bytes", s.SnapshotBytes)
	r.Counter("distributed.link_dropped", int64(s.LinkDropped))
	r.Counter("distributed.link_slow_hops", int64(s.LinkSlowHops))
	r.Counter("distributed.link_excluded", int64(s.LinkExcluded))
	r.Counter("distributed.partitioned_rounds", int64(s.PartitionedRounds))
	r.Counter("distributed.topo_heals", int64(s.TopoHeals))
	r.Counter("distributed.topo_degraded", int64(s.TopoDegraded))
	r.Counter("distributed.membership_epochs", int64(s.MembershipEpochs))
	r.Counter("distributed.joins", int64(s.Joins))
	r.Counter("distributed.leaves", int64(s.Leaves))
	r.Counter("distributed.catchups", int64(s.CatchUps))
	r.Counter("distributed.comm_rounds", int64(s.CommRounds))
	r.Gauge("distributed.sim_seconds", s.SimSeconds)
	r.Gauge("distributed.agg_seconds", s.AggSeconds)
	r.Gauge("distributed.comm_seconds", s.CommSeconds)
	r.Spans("distributed.train", 1)
	return r.Err()
}
