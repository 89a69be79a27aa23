package serve

import (
	"dlsys/internal/obs"
)

// serveObs holds the pre-resolved instruments for one serving run. Counter
// names mirror the Result tallies one-to-one, and Result.Reconcile checks
// them against the request ledger. Every field is a nil no-op for an
// un-instrumented run.
type serveObs struct {
	h *obs.Handle

	served, shed, failed           *obs.Counter
	hedgesLaunched, hedgeWins      *obs.Counter
	breakerOpened, breakerReclosed *obs.Counter

	tierServed  [numTiers]*obs.Counter
	tierLatency [numTiers]*obs.Histogram

	// Span names by outcome, pre-built so the per-request hot path does
	// not allocate.
	spanNames [3]string
}

// latencyBuckets spans sub-millisecond to multi-minute simulated request
// latencies across the device catalog.
var latencyBuckets = obs.ExpBuckets(1e-4, 4, 12)

func newServeObs(h *obs.Handle) *serveObs {
	o := &serveObs{
		h:               h,
		served:          h.Counter("serve.served"),
		shed:            h.Counter("serve.shed"),
		failed:          h.Counter("serve.failed"),
		hedgesLaunched:  h.Counter("serve.hedges_launched"),
		hedgeWins:       h.Counter("serve.hedge_wins"),
		breakerOpened:   h.Counter("serve.breaker_opened"),
		breakerReclosed: h.Counter("serve.breaker_reclosed"),
	}
	for t := TierFull; t < numTiers; t++ {
		if h != nil {
			o.tierServed[t] = h.Counter("serve.tier." + t.String() + ".served")
			o.tierLatency[t] = h.Histogram("serve.tier."+t.String()+".latency_seconds", latencyBuckets)
		}
	}
	for _, oc := range []Outcome{Served, Shed, Failed} {
		o.spanNames[oc] = "serve.request." + oc.String()
	}
	return o
}

// record folds one finished request into the metrics and emits its span —
// one per request, stamped [ArrivalS, FinishS] from the simulated clock,
// named by outcome so traces segment without span attributes.
func (o *serveObs) record(rec *RequestRecord) {
	switch rec.Outcome {
	case Served:
		o.served.Inc()
		o.tierServed[rec.Tier].Inc()
		o.tierLatency[rec.Tier].Observe(rec.LatencyS)
	case Shed:
		o.shed.Inc()
	case Failed:
		o.failed.Inc()
	}
	if rec.Hedged {
		o.hedgesLaunched.Inc()
	}
	if rec.HedgeWon {
		o.hedgeWins.Inc()
	}
	o.h.Emit(o.spanNames[rec.Outcome], rec.ArrivalS, rec.FinishS)
}

// Reconcile checks the run's instruments on h against the request ledger —
// every serve.* counter, each tier's latency histogram (count, and sum bit
// for bit in request order) and one serve.request.* span per request — and
// returns one error naming every mismatch and every unchecked serve.*
// counter. Reading h creates nothing.
func (r Result) Reconcile(h *obs.Handle) error {
	c := obs.NewReconciler(h, "serve.")
	c.Counter("serve.served", int64(r.Served))
	c.Counter("serve.shed", int64(r.Shed))
	c.Counter("serve.failed", int64(r.Failed))
	c.Counter("serve.hedges_launched", int64(r.HedgesLaunched))
	c.Counter("serve.hedge_wins", int64(r.HedgeWins))
	c.Counter("serve.breaker_opened", int64(r.BreakerOpened))
	c.Counter("serve.breaker_reclosed", int64(r.BreakerReclosed))
	for t := TierFull; t < numTiers; t++ {
		var sum float64
		for _, rec := range r.Records {
			if rec.Outcome == Served && rec.Tier == t {
				sum += rec.LatencyS
			}
		}
		c.Counter("serve.tier."+t.String()+".served", int64(r.TierCounts[t]))
		c.HistogramCount("serve.tier."+t.String()+".latency_seconds", int64(r.TierCounts[t]))
		c.HistogramSum("serve.tier."+t.String()+".latency_seconds", sum)
	}
	c.Spans("serve.request.", len(r.Records))
	return c.Err()
}
