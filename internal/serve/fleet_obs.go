package serve

import (
	"fmt"

	"dlsys/internal/obs"
)

// fleetObs holds the pre-resolved instruments for one fleet run. Counter
// names mirror the FleetResult tallies one-to-one, fleet.admitted apart,
// and FleetResult.Reconcile checks them against the request ledger. The
// fleet always instruments through a non-nil
// handle (a private one when the caller passes none) because the
// autoscaler is *driven* by these gauges: metrics here are part of the
// control loop, not just telemetry.
type fleetObs struct {
	h *obs.Handle

	arrived, admitted, shed  *obs.Counter
	served, failed           *obs.Counter
	retries, retriesDenied   *obs.Counter
	cacheHits, cacheMisses   *obs.Counter
	scaleUps, scaleDowns     *obs.Counter
	tenantArrived            []*obs.Counter
	tenantServed             []*obs.Counter
	tenantShed, tenantFailed []*obs.Counter

	replicas, queueLen, queueDelayEst *obs.Gauge
}

func newFleetObs(h *obs.Handle, tenants int) *fleetObs {
	o := &fleetObs{
		h:             h,
		arrived:       h.Counter("fleet.arrived"),
		admitted:      h.Counter("fleet.admitted"),
		shed:          h.Counter("fleet.shed"),
		served:        h.Counter("fleet.served"),
		failed:        h.Counter("fleet.failed"),
		retries:       h.Counter("fleet.retries"),
		retriesDenied: h.Counter("fleet.retries_denied"),
		cacheHits:     h.Counter("fleet.cache_hits"),
		cacheMisses:   h.Counter("fleet.cache_misses"),
		scaleUps:      h.Counter("fleet.scale_up_replicas"),
		scaleDowns:    h.Counter("fleet.scale_down_replicas"),
		replicas:      h.Gauge("fleet.replicas"),
		queueLen:      h.Gauge("fleet.queue_len"),
		queueDelayEst: h.Gauge("fleet.queue_delay_est"),
	}
	for t := 0; t < tenants; t++ {
		o.tenantArrived = append(o.tenantArrived, h.Counter(tenantCounterName(t, "arrived")))
		o.tenantServed = append(o.tenantServed, h.Counter(tenantCounterName(t, "served")))
		o.tenantShed = append(o.tenantShed, h.Counter(tenantCounterName(t, "shed")))
		o.tenantFailed = append(o.tenantFailed, h.Counter(tenantCounterName(t, "failed")))
	}
	return o
}

// tenantCounterName is the fleet's per-tenant counter naming scheme:
// fleet.tenantNN.suffix.
func tenantCounterName(tenant int, suffix string) string {
	return fmt.Sprintf("fleet.tenant%02d.%s", tenant, suffix)
}

// Reconcile checks the run's instruments on h against the request ledger —
// every fleet.* counter, per-tenant ones included, and the fleet.replicas
// gauge — and returns one error naming every mismatch and every unchecked
// fleet.* counter. Reading h creates nothing. fleet.admitted is exempt: it
// counts admitted attempts, and an attempt that admission refused and that
// then went on to a retry is tallied nowhere in FleetResult.
func (r FleetResult) Reconcile(h *obs.Handle) error {
	c := obs.NewReconciler(h, "fleet.")
	c.Counter("fleet.arrived", int64(r.Requests))
	c.Counter("fleet.served", int64(r.Served))
	c.Counter("fleet.shed", int64(r.Shed))
	c.Counter("fleet.failed", int64(r.Failed))
	c.Counter("fleet.retries", int64(r.Retries))
	c.Counter("fleet.retries_denied", int64(r.RetriesDenied))
	c.Counter("fleet.cache_hits", int64(r.CacheHits))
	c.Counter("fleet.cache_misses", int64(r.CacheMisses))
	c.Counter("fleet.scale_up_replicas", int64(r.ScaleUpReplicas))
	c.Counter("fleet.scale_down_replicas", int64(r.ScaleDownReplicas))
	c.Exempt("fleet.admitted")
	c.Gauge("fleet.replicas", float64(r.FinalReplicas))
	for i, ts := range r.Tenants {
		c.Counter(tenantCounterName(i, "arrived"), int64(ts.Arrived))
		c.Counter(tenantCounterName(i, "served"), int64(ts.Served))
		c.Counter(tenantCounterName(i, "shed"), int64(ts.Shed))
		c.Counter(tenantCounterName(i, "failed"), int64(ts.Failed))
	}
	return c.Err()
}
