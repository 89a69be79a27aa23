package serve

import "math"

// Admission control for the event-driven fleet. Two modes:
//
//   - Legacy (Adaptive == false): a fixed global queue cap, the gate the
//     original Server used per replica. Under sustained overload the queue
//     sits at the cap; if the cap is deeper than the deadline horizon
//     (cap/drain > deadline), every admitted request is doomed to miss its
//     deadline — the fleet burns full capacity producing nothing, which is
//     the wasted-work half of the metastable failure X14 measures.
//
//   - Adaptive (Adaptive == true): a two-rung ladder. Rung one rejects
//     deadline-infeasible work up front — if the estimated queue delay plus
//     one service time already overruns the request's deadline, admitting
//     it could only waste capacity, so it is shed at the door for free.
//     Rung two is a CoDel-style controller on queue sojourn: it tolerates
//     bursts, but once the delay measured at *dequeue* has stayed above
//     target for a full interval it enters a dropping state and sheds
//     arrivals at an increasing rate (interval/sqrt(count)) until the
//     standing queue dissolves. On top of both rungs, per-tenant
//     weighted-fair slot caps bound how much of the queue a single tenant
//     may occupy while the fleet is overloaded, so one tenant's flash
//     crowd or retry storm cannot starve the rest; when the fleet is
//     underloaded the caps are not enforced and the queue is
//     work-conserving.

// AdmissionConfig tunes the fleet's admission gate.
type AdmissionConfig struct {
	// Adaptive selects the delay-aware ladder; false selects the legacy
	// fixed queue cap.
	Adaptive bool
}

// The gate's fixed policy: the legacy global queue cap, in entries, and
// CoDel's sojourn target as a fraction of DeadlineS. CoDel's control
// interval is DeadlineS itself.
const (
	legacyQueueCap = 10000
	codelTargetDiv = 4
)

// codel is the queue-delay controller: sojourn observations arrive from
// dequeues, shed verdicts are consulted at admission. The control law is
// CoDel's — first_above_time arms after one interval above target,
// dropping sheds at interval/sqrt(count) — applied at the front door
// rather than the queue head, which suits admission control (the work is
// refused before it costs anything).
type codel struct {
	target, interval float64
	firstAbove       float64 // 0 = sojourn currently below target
	dropping         bool
	dropNext         float64
	count            int
}

// onDequeue feeds one sojourn measurement taken when a request left the
// queue for a replica.
func (c *codel) onDequeue(sojourn, now float64) {
	if sojourn < c.target {
		c.firstAbove = 0
		c.dropping = false
		c.count = 0
		return
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.interval
	} else if now >= c.firstAbove && !c.dropping {
		c.dropping = true
		c.count = 0
		c.dropNext = now
	}
}

// shouldShed reports whether the arrival at now should be refused under
// the current dropping state.
func (c *codel) shouldShed(now float64) bool {
	if !c.dropping {
		return false
	}
	if now >= c.dropNext {
		c.count++
		c.dropNext = now + c.interval/math.Sqrt(float64(c.count))
		return true
	}
	return false
}

// admitter is the runtime admission state shared by both modes.
type admitter struct {
	adaptive  bool
	deadlineS float64
	serviceS  float64 // one fresh request's service time

	codel        codel
	tenantQueued []int
	tenantCap    []int // fair queue-slot cap per tenant (adaptive mode)
	fairDepth    int   // queue length at which fair caps engage
}

func newAdmitter(cfg AdmissionConfig, deadlineS, serviceS, drainRate float64, weights []float64) *admitter {
	a := &admitter{
		adaptive:  cfg.Adaptive,
		deadlineS: deadlineS,
		serviceS:  serviceS,
		codel:     codel{target: deadlineS / codelTargetDiv, interval: deadlineS},
	}
	// The deadline horizon in queue slots: a queue longer than this makes
	// every admitted request infeasible. Fair-share caps split that depth
	// by entitlement and engage at half of it.
	horizon := (deadlineS - serviceS) * drainRate
	if horizon < 1 {
		horizon = 1
	}
	a.fairDepth = int(horizon / 2)
	a.tenantQueued = make([]int, len(weights))
	a.tenantCap = make([]int, len(weights))
	for i, w := range weights {
		slots := int(w * horizon)
		if slots < 2 {
			slots = 2
		}
		a.tenantCap[i] = slots
	}
	return a
}

// admit decides whether the request may join the queue. estDelay is the
// fleet's current queue-delay estimate, queueLen the global queue length.
func (a *admitter) admit(tenant int, now, estDelay float64, queueLen int) bool {
	if !a.adaptive {
		return queueLen < legacyQueueCap
	}
	// Rung one: deadline infeasibility. Admitting work that cannot finish
	// in time only converts capacity into misses.
	if estDelay+a.serviceS > a.deadlineS {
		return false
	}
	// Fairness: under overload a tenant may not hold more than its
	// weighted share of the deadline horizon.
	if queueLen > a.fairDepth && a.tenantQueued[tenant] >= a.tenantCap[tenant] {
		return false
	}
	// Rung two: CoDel dropping state.
	if a.codel.shouldShed(now) {
		return false
	}
	return true
}

// enqueued/dequeued keep the per-tenant occupancy in sync with the queue.
func (a *admitter) enqueued(tenant int) { a.tenantQueued[tenant]++ }
func (a *admitter) dequeued(tenant int, sojourn, now float64) {
	a.tenantQueued[tenant]--
	a.codel.onDequeue(sojourn, now)
}
