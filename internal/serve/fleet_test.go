package serve

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dlsys/internal/fault"
	"dlsys/internal/invalid"
	"dlsys/internal/obs"
)

// fleetScenario is the shared overload day the fleet tests run: 10
// replicas (~25k req/s capacity at full batch), 20k req/s offered (ρ=0.8),
// a ×4 flash crowd for t∈[0.5,0.8), and 60k requests total (~2.1s of
// virtual time). Arms toggle the control plane.
func fleetScenario(seed int64, requests int, fullPlane bool) FleetConfig {
	cfg := FleetConfig{
		Seed: seed,
		Faults: fault.Config{
			Seed: seed,
			Schedule: []fault.Window{
				{Kind: fault.KindArrival, StartS: 0.5, EndS: 0.8, Factor: 4},
			},
		},
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

func runFleet(t *testing.T, cfg FleetConfig) FleetResult {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f.Run()
}

func TestFleetLowLoadServesEverything(t *testing.T) {
	cfg := fleetScenario(1, 20000, true)
	cfg.Faults.Schedule = nil // no crowd: pure ρ=0.8 steady state
	res := runFleet(t, cfg)
	if res.Availability < 0.999 {
		t.Fatalf("steady-state availability %.4f (served %d shed %d failed %d)",
			res.Availability, res.Served, res.Shed, res.Failed)
	}
	if res.P99S > cfg.DeadlineS {
		t.Fatalf("p99 %.4fs above the %.3fs deadline in a calm fleet", res.P99S, cfg.DeadlineS)
	}
	if res.Served+res.Shed+res.Failed != res.Requests {
		t.Fatalf("outcomes %d+%d+%d do not cover %d requests",
			res.Served, res.Shed, res.Failed, res.Requests)
	}
}

func TestFleetReplayIsBitIdentical(t *testing.T) {
	for _, full := range []bool{true, false} {
		cfg := fleetScenario(7, 30000, full)
		fa, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ra := fa.Run()
		fb, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rb := fb.Run()
		if ra.LedgerFP != rb.LedgerFP {
			t.Fatalf("full=%v: ledger fingerprints differ: %x vs %x", full, ra.LedgerFP, rb.LedgerFP)
		}
		if fa.Kernel().Fingerprint() != fb.Kernel().Fingerprint() {
			t.Fatalf("full=%v: kernel fingerprints differ", full)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("full=%v: results differ across identical runs", full)
		}
	}
	// Different seeds must produce different ledgers.
	a := runFleet(t, fleetScenario(7, 30000, true))
	b := runFleet(t, fleetScenario(8, 30000, true))
	if a.LedgerFP == b.LedgerFP {
		t.Fatal("different seeds produced identical ledger fingerprints")
	}
}

// TestFleetMetastableCollapseWithoutBudgets is the failure mode X14
// measures: with budgets off and the legacy fixed queue cap, the flash
// crowd fills the queue past the deadline horizon and client retries hold
// it there after the crowd passes — goodput stays collapsed at an offered
// load the fleet previously served in full.
func TestFleetMetastableCollapseWithoutBudgets(t *testing.T) {
	res := runFleet(t, fleetScenario(3, 60000, false))
	pre := res.GoodputOver(0.1, 0.5)
	post := res.GoodputOver(1.0, 2.0)
	if pre < 15000 {
		t.Fatalf("pre-crowd goodput %.0f req/s; the fleet should serve ~20k/s before the trigger", pre)
	}
	if post >= 0.5*pre {
		t.Fatalf("no metastable collapse: post-crowd goodput %.0f vs pre %.0f req/s", post, pre)
	}
}

// TestFleetControlPlaneRecovers is the other half: the full control plane
// (retry budgets, adaptive admission, autoscaling, cache) restores
// goodput to >=95%% of the pre-crowd level within 0.4 virtual seconds of
// the crowd's end.
func TestFleetControlPlaneRecovers(t *testing.T) {
	res := runFleet(t, fleetScenario(3, 60000, true))
	pre := res.GoodputOver(0.1, 0.5)
	rec := res.RecoveredBy(0.8, 0.95*pre)
	if rec < 0 || rec > 1.2 {
		t.Fatalf("goodput did not recover to 95%% of %.0f req/s by t=1.2 (recovered at %.2f)", pre, rec)
	}
	post := res.GoodputOver(1.2, 2.0)
	if post < 0.95*pre {
		t.Fatalf("recovery not sustained: post %.0f vs pre %.0f req/s", post, pre)
	}
	// Tenant isolation: nobody starves over the whole day.
	for i, ts := range res.Tenants {
		if ts.Availability < 0.5 {
			t.Fatalf("tenant %d availability %.3f below floor 0.5", i, ts.Availability)
		}
	}
}

func TestFleetAutoscalerScalesUpAndBack(t *testing.T) {
	res := runFleet(t, fleetScenario(5, 60000, true))
	if res.ScaleUpReplicas == 0 {
		t.Fatal("crowd did not trigger a scale-up")
	}
	if res.PeakReplicas <= 10 || res.PeakReplicas > 20 {
		t.Fatalf("peak replicas %d outside (10, 20]", res.PeakReplicas)
	}
	if res.ScaleDownReplicas == 0 {
		t.Fatal("fleet never scaled back after the crowd")
	}
	if res.FinalReplicas > res.PeakReplicas {
		t.Fatalf("final replicas %d above peak %d", res.FinalReplicas, res.PeakReplicas)
	}
}

func TestFleetCacheAbsorbsHotKeys(t *testing.T) {
	cfg := fleetScenario(9, 30000, true)
	cfg.Faults.Schedule = nil
	with := runFleet(t, cfg)
	if with.CacheHits == 0 {
		t.Fatal("zipf-skewed keys produced zero cache hits")
	}
	hitRate := float64(with.CacheHits) / float64(with.CacheHits+with.CacheMisses)
	if hitRate < 0.05 {
		t.Fatalf("cache hit rate %.3f too low for a skewed key stream", hitRate)
	}
	cfg.Cache.Disabled = true
	without := runFleet(t, cfg)
	if without.CacheHits != 0 {
		t.Fatalf("disabled cache reported %d hits", without.CacheHits)
	}
}

// TestFleetObsReconcilesWithLedger checks the X8-style contract on the
// fleet side: every obs counter equals its ledger tally exactly.
func TestFleetObsReconcilesWithLedger(t *testing.T) {
	cfg := fleetScenario(11, 30000, true)
	h := obs.NewHandle()
	cfg.Obs = h
	res := runFleet(t, cfg)
	if err := res.Reconcile(h); err != nil {
		t.Fatal(err)
	}
	h.Counter("fleet.scale_down_replicas").Inc()
	if err := res.Reconcile(h); err == nil || !strings.Contains(err.Error(), "fleet.scale_down_replicas=") {
		t.Fatalf("a bumped fleet.scale_down_replicas was not named: %v", err)
	}
}

func TestFleetRetryStormIsolation(t *testing.T) {
	// Tenant 0 turns abusive for t∈[0.6,1.0): x3 retry aggression. With
	// the full plane, the weighted-fair caps plus budgets keep every
	// other tenant's availability near perfect.
	cfg := fleetScenario(13, 40000, true)
	cfg.Faults.Schedule = []fault.Window{
		{Kind: fault.KindRetryStorm, Workers: []int{0}, StartS: 0.6, EndS: 1.0, Factor: 3},
	}
	res := runFleet(t, cfg)
	for i, ts := range res.Tenants {
		if i == 0 {
			continue
		}
		if ts.Availability < 0.95 {
			t.Fatalf("tenant %d availability %.3f under tenant 0's retry storm", i, ts.Availability)
		}
	}
}

func TestFleetBrownoutRaisesLatency(t *testing.T) {
	cfg := fleetScenario(15, 30000, true)
	cfg.Faults.Schedule = nil
	calm := runFleet(t, cfg)
	cfg.Faults.Schedule = []fault.Window{
		{Kind: fault.KindBrownout, Workers: []int{0, 1, 2}, StartS: 0.2, EndS: 0.8, Factor: 2},
	}
	brown := runFleet(t, cfg)
	if brown.P99S <= calm.P99S {
		t.Fatalf("brownout p99 %.5f not above calm p99 %.5f", brown.P99S, calm.P99S)
	}
	if brown.Availability < 0.9 {
		t.Fatalf("mild brownout collapsed availability to %.3f", brown.Availability)
	}
}

func TestFleetConfigErrors(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		mutate func(*FleetConfig)
		field  string
	}{
		{"no requests", func(c *FleetConfig) { c.Requests = 0 }, "Requests"},
		{"no arrival rate", func(c *FleetConfig) { c.ArrivalRate = 0 }, "ArrivalRate"},
		{"scaler cap", func(c *FleetConfig) { c.Autoscale.MaxReplicas = 2 }, "Autoscale.MaxReplicas"},
		{"NaN arrival rate", func(c *FleetConfig) { c.ArrivalRate = nan }, "ArrivalRate"},
		{"NaN service time", func(c *FleetConfig) { c.ServiceS = nan }, "ServiceS"},
		{"NaN deadline", func(c *FleetConfig) { c.DeadlineS = nan }, "DeadlineS"},
		{"NaN bucket", func(c *FleetConfig) { c.BucketS = nan }, "BucketS"},
	}
	for _, tc := range cases {
		cfg := fleetScenario(1, 1000, true)
		tc.mutate(&cfg)
		_, err := NewFleet(cfg)
		var ce *invalid.Error
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: got %v, want a *invalid.Error on %s", tc.name, err, tc.field)
		}
	}
}

// TestFleetEventLoopThroughput is the CI guardrail: the event loop must
// sustain at least 100k simulated requests per wall-second. Skipped in
// -short runs (the -race matrix) where instrumentation skews timing.
func TestFleetEventLoopThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guardrail: skipped under -short (race/instrumented builds)")
	}
	cfg := fleetScenario(21, 300000, true)
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := f.Run()
	wall := time.Since(start).Seconds()
	rate := float64(res.Requests) / wall
	if rate < 100000 {
		t.Fatalf("event loop served %.0f simulated req/wall-second, below the 100k guardrail (%d requests in %.2fs)",
			rate, res.Requests, wall)
	}
	t.Logf("event loop: %.0f simulated requests/wall-second", rate)
}

// TestFleetRunAllocations is the fleet's allocation contract: with every
// event handler built once, a 200k-request day of either arm makes fewer
// than 0.01 heap allocations per kernel event (set-up and the amortised
// growth of the queues included).
func TestFleetRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	for _, full := range []bool{true, false} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := NewFleet(fleetScenario(3, 200_000, full))
		if err != nil {
			t.Fatal(err)
		}
		f.Run()
		runtime.ReadMemStats(&after)
		events := f.Kernel().Processed()
		perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
		t.Logf("full plane %v: %d mallocs over %d events (%.5f per event)",
			full, after.Mallocs-before.Mallocs, events, perEvent)
		if perEvent >= 0.01 {
			t.Errorf("full plane %v: %.4f allocations per kernel event, want < 0.01", full, perEvent)
		}
	}
}

// TestKeySkewMatchesPowByBits holds hotKey's cube to math.Pow(u, 3) bit
// for bit, over 10⁶ of hotKey's draws plus the ends of the draw range.
func TestKeySkewMatchesPowByBits(t *testing.T) {
	draws := 1_000_000
	if raceEnabled {
		draws /= 10 // pure arithmetic: the race detector adds only time
	}
	us := []float64{0, 0x1p-53, 1 - 0x1p-53}
	for i := 0; i < draws; i++ {
		us = append(us, keyDraw(int64(i%5), i%8, i/40))
	}
	for _, u := range us {
		if got, want := cube(u), math.Pow(u, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("u = %b: got %b, math.Pow %b", u, got, want)
		}
	}
}
