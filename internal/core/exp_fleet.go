package core

import (
	"fmt"

	"dlsys/internal/fault"
	"dlsys/internal/obs"
	"dlsys/internal/serve"
)

// X14 is the overload-robustness study on the event-driven serving fleet:
// a planet-scale day (>=1.2M requests at Full scale, eight Zipf-weighted
// tenants) hit by a x4 flash crowd. With the overload control plane off
// (no retry budgets, fixed queue cap, no autoscaling, no cache) the fleet
// enters METASTABLE collapse — the queue sits past the deadline horizon,
// every admitted request expires while consuming full service capacity,
// and client retries hold the system there long after the crowd has
// passed, pinning goodput below half its pre-crowd level at an offered
// load the fleet previously served in full. With the control plane on
// (retry budgets, CoDel + deadline-infeasibility admission, weighted-fair
// tenant caps, the deterministic autoscaler, and the hot-key cache)
// goodput recovers to >=95% of the pre-crowd level within 0.4 virtual
// seconds of the crowd's end and every tenant holds an availability
// floor. The instrumented run reconciles every obs counter exactly with
// the fleet's O(1) request ledger, and the whole day — ledger, kernel
// event log, and metric registry — replays bit-identically.

func init() {
	register(Experiment{
		ID: "X14", Section: "3",
		Title: "Overload-robust planet-scale serving: retry budgets, tenant isolation, and metastable-failure recovery",
		Claim: "an event-driven fleet sweeping >=1M requests in wall seconds shows metastable collapse after a flash crowd when retry budgets are off (post-crowd goodput under half the pre-crowd level), while the full overload control plane recovers to >=95% within 0.4 virtual seconds of the crowd's end, holds per-tenant availability floors, reconciles obs counters exactly with the request ledger, and replays bit-identically",
		Run:   runX14,
	})
}

const (
	// x14CrowdStartS..x14CrowdEndS is the flash-crowd window (absolute
	// virtual seconds); arrivals compress x4 inside it.
	x14CrowdStartS = 0.5
	x14CrowdEndS   = 0.8
	// x14RecoverByS is the stated recovery bound: goodput must be back to
	// x14RecoverFrac of the pre-crowd level by this virtual time, i.e.
	// within 0.4 virtual seconds of the crowd's end.
	x14RecoverByS   = 1.2
	x14RecoverFrac  = 0.95
	x14CollapseFrac = 0.5
	// x14TenantFloor is the whole-day availability floor every tenant must
	// hold under the full control plane, crowd included.
	x14TenantFloor = 0.5
)

// x14Config is the shared overload day: 10 replicas (~25k req/s capacity
// at full batch), 20k req/s offered (rho = 0.8), and the x4 flash crowd.
// fullPlane toggles the whole control plane at once — the budgets-off arm
// also reverts to the legacy fixed queue cap, a static fleet, and no
// cache, isolating the metastability mechanism the control plane breaks.
func x14Config(requests int, fullPlane bool, h *obs.Handle) serve.FleetConfig {
	cfg := serve.FleetConfig{
		Seed: 300,
		Faults: fault.Config{
			Seed: 300,
			Schedule: []fault.Window{
				{Kind: fault.KindArrival, StartS: x14CrowdStartS, EndS: x14CrowdEndS, Factor: 4},
			},
		},
		Obs:         h,
		Tenants:     8,
		Requests:    requests,
		ArrivalRate: 20000,
		Replicas:    10,
		ServiceS:    1e-3,
		DeadlineS:   0.02,
		BackoffS:    0.01,
		BucketS:     0.05,
	}
	if fullPlane {
		cfg.Admission.Adaptive = true
		cfg.Autoscale.MaxReplicas = 20
		cfg.Autoscale.IntervalS = 0.05
		cfg.Autoscale.LagS = 0.1
		cfg.Autoscale.CooldownS = 0.1
	} else {
		cfg.Budget.Disabled = true
		cfg.Autoscale.Disabled = true
		cfg.Cache.Disabled = true
	}
	return cfg
}

func x14Requests(scale Scale) int {
	if scale == Full {
		return 1_200_000
	}
	return 200_000
}

// x14Run executes one arm and returns the result and its handle plus the
// kernel fingerprint and event count for the replay and scale rows.
func x14Run(requests int, fullPlane bool) (serve.FleetResult, *obs.Handle, uint64, int, error) {
	h := obs.NewHandle()
	f, err := serve.NewFleet(x14Config(requests, fullPlane, h))
	if err != nil {
		return serve.FleetResult{}, nil, 0, 0, err
	}
	res := f.Run()
	return res, h, f.Kernel().Fingerprint(), f.Kernel().Processed(), nil
}

func runX14(scale Scale) *Table {
	t := &Table{ID: "X14", Title: "Overload-robust planet-scale serving",
		Claim:   "metastable collapse without retry budgets; >=95% recovery within 0.4 virtual seconds with the full control plane; per-tenant floors; exact obs/ledger reconciliation; bit-identical replay",
		Columns: []string{"check", "detail", "ok"}}
	requests := x14Requests(scale)

	// Budgets-off arm: the metastable collapse.
	off, _, offKFP, offEvents, err := x14Run(requests, false)
	if err != nil {
		t.AddRow("run-off", err.Error(), yesNo(false))
		t.Shape = "budgets-off arm failed"
		return t
	}
	// Full-plane arm, twice: recovery plus the replay fingerprints.
	on1, h1, on1KFP, on1Events, err1 := x14Run(requests, true)
	on2, h2, on2KFP, _, err2 := x14Run(requests, true)
	if err1 != nil || err2 != nil {
		t.AddRow("run-on", fmt.Sprintf("%v / %v", err1, err2), yesNo(false))
		t.Shape = "full-plane arm failed"
		return t
	}

	complete := on1.Served+on1.Shed+on1.Failed == requests &&
		off.Served+off.Shed+off.Failed == requests
	// No wall time here, so the table replays byte for byte; serve's
	// TestFleetEventLoopThroughput and the benchmark's fleet-overload
	// workload hold the requests-per-wall-second claim.
	t.AddRow("scale",
		fmt.Sprintf("requests/arm=%d tenants=%d events=%d+%d",
			requests, len(on1.Tenants), offEvents, on1Events),
		yesNo(complete && len(on1.Tenants) == 8))

	preOff := off.GoodputOver(0.1, x14CrowdStartS)
	postOff := off.GoodputOver(1.0, 2.0)
	t.AddRow("metastable-collapse (budgets off)",
		fmt.Sprintf("pre=%.4g req/s post=%.4g req/s offered_post=%.4g retries=%d avail=%.4g",
			preOff, postOff, off.OfferedOver(1.0, 2.0), off.Retries, off.Availability),
		yesNo(preOff >= 15000 && postOff < x14CollapseFrac*preOff))

	preOn := on1.GoodputOver(0.1, x14CrowdStartS)
	recAt := on1.RecoveredBy(x14CrowdEndS, x14RecoverFrac*preOn)
	sustained := on1.GoodputOver(x14RecoverByS, 2.0)
	t.AddRow("recovery (full control plane)",
		fmt.Sprintf("pre=%.4g req/s recovered_at=%.3gs bound=%.3gs sustained=%.4g req/s retries=%d denied=%d",
			preOn, recAt, x14RecoverByS, sustained, on1.Retries, on1.RetriesDenied),
		yesNo(recAt >= 0 && recAt <= x14RecoverByS && sustained >= x14RecoverFrac*preOn &&
			on1.RetriesDenied > 0))

	minAvail := 1.0
	for _, ts := range on1.Tenants {
		if ts.Availability < minAvail {
			minAvail = ts.Availability
		}
	}
	t.AddRow("tenant-isolation",
		fmt.Sprintf("min_tenant_availability=%.4g floor=%.4g overall=%.4g", minAvail, x14TenantFloor, on1.Availability),
		yesNo(minAvail >= x14TenantFloor))

	hitRate := 0.0
	if on1.CacheHits+on1.CacheMisses > 0 {
		hitRate = float64(on1.CacheHits) / float64(on1.CacheHits+on1.CacheMisses)
	}
	t.AddRow("elasticity+cache",
		fmt.Sprintf("scale_up=%d scale_down=%d peak=%d final=%d cache_hit_rate=%.4g",
			on1.ScaleUpReplicas, on1.ScaleDownReplicas, on1.PeakReplicas, on1.FinalReplicas, hitRate),
		yesNo(on1.ScaleUpReplicas > 0 && on1.ScaleDownReplicas > 0 &&
			on1.PeakReplicas > 10 && on1.PeakReplicas <= 20 && on1.CacheHits > 0))

	detail := "every fleet counter exact against the request ledger"
	recErr := on2.Reconcile(h2)
	if recErr != nil {
		detail = recErr.Error()
	}
	t.AddRow("reconcile", detail, yesNo(recErr == nil))

	replay := on1.LedgerFP == on2.LedgerFP &&
		on1KFP == on2KFP &&
		h1.Reg.Fingerprint() == h2.Reg.Fingerprint() &&
		offKFP != on1KFP // arms must differ: the toggle changes the day
	t.AddRow("replay",
		fmt.Sprintf("ledger=%016x kernel=%016x registry=%016x", on1.LedgerFP, on1KFP, h1.Reg.Fingerprint()),
		yesNo(replay))

	t.Shape = "the budgets-off arm collapses after the crowd and stays collapsed; the full control plane recovers within the stated bound, isolates tenants, reconciles exactly, and replays bit-identically"
	return t
}
