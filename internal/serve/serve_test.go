package serve

import (
	"reflect"
	"strings"
	"testing"

	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/obs"
	"dlsys/internal/quant"
)

// testVariant fabricates a variant with the given tier and byte cost; the
// Model is nil, which is fine as long as no eval set is configured.
func testVariant(tier Tier, bytes int64) Variant {
	return Variant{
		Tier: tier, Name: tier.String(), Accuracy: 1 - 0.05*float64(tier),
		FLOPs: 3000, Bytes: bytes,
	}
}

// testFleet is 2x full + one replica per compressed tier on the edge
// device — the fleet shape the X6 experiment uses.
func testFleet() []Replica {
	mk := func(tier Tier, bytes int64) Replica {
		return Replica{Variant: testVariant(tier, bytes), Device: device.EdgeDevice, Efficiency: 0.5}
	}
	return []Replica{
		mk(TierFull, 6000),
		mk(TierFull, 6000),
		mk(TierQuantized, 1600),
		mk(TierDistilled, 500),
		mk(TierPruned, 2000),
	}
}

func testConfig(seed int64, faultRate, load float64, requests int, fallback bool) Config {
	full := Replica{Variant: testVariant(TierFull, 6000), Device: device.EdgeDevice, Efficiency: 0.5}
	serviceFull := full.ServiceS()
	return Config{
		Seed:          seed,
		Faults:        fault.Rate(seed, faultRate),
		Replicas:      testFleet(),
		ArrivalRate:   load * 2 / serviceFull, // 2 full replicas' worth of capacity
		Requests:      requests,
		Fallback:      fallback,
		HedgeQuantile: 0.9,
	}
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestFaultFreeLowLoadServesEverything(t *testing.T) {
	res := run(t, testConfig(1, 0, 0.5, 400, true))
	if res.Served != 400 {
		t.Fatalf("served %d/400 (shed %d failed %d)", res.Served, res.Shed, res.Failed)
	}
	if res.Availability != 1 {
		t.Fatalf("availability %g", res.Availability)
	}
	if res.BreakerOpened != 0 {
		t.Fatalf("breakers opened %d times in a fault-free run", res.BreakerOpened)
	}
	// Nearly all traffic stays on the full tier; rare Poisson bursts may
	// degrade a handful of requests rather than queueing past deadline.
	if res.TierCounts[TierFull] < 380 {
		t.Fatalf("too much low-load traffic left the full tier: %v", res.TierCounts)
	}
	if res.P50S <= 0 || res.P99S < res.P50S {
		t.Fatalf("latency stats p50=%g p99=%g", res.P50S, res.P99S)
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	for _, cfg := range []Config{
		testConfig(7, 0.2, 1.3, 500, true),
		testConfig(7, 0.05, 0.6, 500, false),
	} {
		a := run(t, cfg)
		b := run(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("identical seed and config produced different ledgers")
		}
	}
	// And a different seed must produce a different ledger under faults.
	a := run(t, testConfig(7, 0.2, 1.3, 500, true))
	c := run(t, testConfig(8, 0.2, 1.3, 500, true))
	if reflect.DeepEqual(a.Records, c.Records) {
		t.Fatal("different seeds produced identical ledgers")
	}
}

func TestOverloadShedsWithoutFallback(t *testing.T) {
	noFB := run(t, testConfig(3, 0, 2.5, 600, false))
	if noFB.Shed == 0 {
		t.Fatal("2.5x overload with only the full tier should shed")
	}
	withFB := run(t, testConfig(3, 0, 2.5, 600, true))
	if withFB.Availability <= noFB.Availability {
		t.Fatalf("fallback availability %.3f not above no-fallback %.3f",
			withFB.Availability, noFB.Availability)
	}
	degraded := withFB.TierCounts[TierQuantized] + withFB.TierCounts[TierDistilled] + withFB.TierCounts[TierPruned]
	if degraded == 0 {
		t.Fatal("overloaded fallback run served nothing from compressed tiers")
	}
}

func TestFallbackBeatsNoFallbackUnderFaults(t *testing.T) {
	noFB := run(t, testConfig(5, 0.2, 1.3, 800, false))
	withFB := run(t, testConfig(5, 0.2, 1.3, 800, true))
	if withFB.Availability <= noFB.Availability {
		t.Fatalf("fallback availability %.3f not above no-fallback %.3f under faults",
			withFB.Availability, noFB.Availability)
	}
}

func TestBreakersOpenAndReclose(t *testing.T) {
	res := run(t, testConfig(11, 0.2, 1.0, 1500, true))
	if res.BreakerOpened == 0 {
		t.Fatal("no breaker opened at fault rate 0.2")
	}
	if res.BreakerReclosed == 0 {
		t.Fatal("no breaker re-closed — recovery path never exercised")
	}
}

// TestServerObsReconcilesWithLedger runs a faulty, overloaded day with
// fallback and hedging on, reconciles its counters, tier histograms and
// request spans with the request ledger, and then requires one extra
// increment to be named.
func TestServerObsReconcilesWithLedger(t *testing.T) {
	cfg := testConfig(11, 0.2, 1.0, 1500, true)
	cfg.Obs = obs.NewHandle()
	res := run(t, cfg)
	if err := res.Reconcile(cfg.Obs); err != nil {
		t.Fatal(err)
	}
	cfg.Obs.Counter("serve.breaker_reclosed").Inc()
	if err := res.Reconcile(cfg.Obs); err == nil || !strings.Contains(err.Error(), "serve.breaker_reclosed=") {
		t.Fatalf("a bumped serve.breaker_reclosed was not named: %v", err)
	}
}

func TestHedgingFiresAndWins(t *testing.T) {
	// Stragglers (8x) with no other faults, at moderate load so tail
	// latency is straggler- rather than queue-dominated: hedges should
	// fire on straggled attempts and some should win.
	cfg := testConfig(13, 0, 0.5, 1200, true)
	cfg.Faults = fault.Config{Seed: 13, Schedule: []fault.Window{{Kind: fault.KindStraggle, Prob: 0.15, Factor: 8}}}
	// Hedge below the straggler fraction: at p90 the quantile IS the
	// straggled latency and nothing strictly exceeds it.
	cfg.HedgeQuantile = 0.8
	res := run(t, cfg)
	if res.HedgesLaunched == 0 {
		t.Fatal("no hedges launched despite 8x stragglers")
	}
	if res.HedgeWins == 0 {
		t.Fatal("no hedge ever won")
	}
	if res.HedgeWins > res.HedgesLaunched {
		t.Fatalf("hedge wins %d exceed launches %d", res.HedgeWins, res.HedgesLaunched)
	}

	// With hedging disabled the same scenario must be strictly slower at
	// the tail.
	cfg2 := cfg
	cfg2.HedgeQuantile = 0
	res2 := run(t, cfg2)
	if res2.HedgesLaunched != 0 {
		t.Fatal("hedging ran while disabled")
	}
	if res.P99S >= res2.P99S {
		t.Fatalf("hedged p99 %.4f not below unhedged p99 %.4f", res.P99S, res2.P99S)
	}
}

func TestDeadlineAwareShedding(t *testing.T) {
	// Full tier only, short queues, high load: requests whose projected
	// start blows the deadline must be shed, not queued to die.
	cfg := testConfig(17, 0, 4.0, 400, false)
	res := run(t, cfg)
	if res.Shed == 0 {
		t.Fatal("nothing shed at 4x overload")
	}
	// Every served request met its deadline by construction.
	deadline := serverDeadline * cfg.baseServiceS()
	for _, r := range res.Records {
		if r.Outcome == Served && r.LatencyS > deadline {
			t.Fatalf("request %d served after its deadline window", r.ID)
		}
	}
	// Shed requests are rejected instantly (admission control, not
	// timeout): their finish time equals their arrival.
	for _, r := range res.Records {
		if r.Outcome == Shed && r.FinishS != r.ArrivalS {
			t.Fatalf("request %d shed late: arrival %.4f finish %.4f", r.ID, r.ArrivalS, r.FinishS)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(1, 0, 1, 10, true)
	bad := []func(*Config){
		func(c *Config) { c.Replicas = nil },
		func(c *Config) { c.Replicas[0].Efficiency = 0 },
		func(c *Config) { c.Replicas[0].Efficiency = 1.5 },
		func(c *Config) { c.Replicas[0].Variant.Bytes = 0 },
		func(c *Config) { c.Replicas[0].Variant.Tier = Tier(9) },
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.Requests = 0 },
		func(c *Config) { c.HedgeQuantile = 1 },
		func(c *Config) { c.Faults.Schedule = []fault.Window{{Kind: fault.KindCrash, Prob: 1.5}} },
	}
	for i, mutate := range bad {
		cfg := good
		cfg.Replicas = append([]Replica(nil), good.Replicas...)
		mutate(&cfg)
		if _, err := NewServer(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := NewServer(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestBuildVariantsLadder(t *testing.T) {
	vs, eval, err := BuildVariants(VariantsConfig{Seed: 42, Examples: 800, Epochs: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 {
		t.Fatalf("got %d variants, want 4", len(vs))
	}
	for i, v := range vs {
		if v.Tier != Tier(i) {
			t.Fatalf("variant %d has tier %v", i, v.Tier)
		}
		if v.Model == nil || v.Bytes <= 0 || v.FLOPs <= 0 {
			t.Fatalf("variant %v incomplete: %+v", v.Tier, v)
		}
		if v.Accuracy < 0.5 {
			t.Fatalf("variant %v accuracy %.3f suspiciously low", v.Tier, v.Accuracy)
		}
	}
	// Every compressed tier must actually stream fewer bytes.
	for _, v := range vs[1:] {
		if v.Bytes >= vs[0].Bytes {
			t.Fatalf("tier %v bytes %d not below full %d", v.Tier, v.Bytes, vs[0].Bytes)
		}
	}
	if eval == nil || eval.N() == 0 {
		t.Fatal("no eval split returned")
	}
}

// tierPredictions must reproduce per-tier Predict for a mixed fleet, one
// representative model per tier.
func TestTierPredictionsMatchPerTier(t *testing.T) {
	variants, eval, err := BuildVariants(VariantsConfig{Seed: 5, Examples: 600, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	var reps [numTiers]Predictor
	for _, v := range variants {
		if reps[v.Tier] == nil {
			reps[v.Tier] = v.Model
		}
	}
	got := tierPredictions(reps, eval.X)
	for tier := TierFull; tier < numTiers; tier++ {
		want := reps[tier].Predict(eval.X)
		for r := range want {
			if got[tier][r] != want[r] {
				t.Fatalf("tier %v row %d: %d != %d", tier, r, got[tier][r], want[r])
			}
		}
	}
}

// The Float32 opt-in swaps the full tier to the f32 inference path with
// half the streamed bytes; off, the ladder stays the historical one.
func TestBuildVariantsFloat32OptIn(t *testing.T) {
	f64v, _, err := BuildVariants(VariantsConfig{Seed: 6, Examples: 600, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	f32v, _, err := BuildVariants(VariantsConfig{Seed: 6, Examples: 600, Epochs: 6, Float32: true})
	if err != nil {
		t.Fatal(err)
	}
	if f64v[0].Name != "full-fp32" {
		t.Fatalf("default full tier: %s", f64v[0].Name)
	}
	if f32v[0].Name != "full-f32" {
		t.Fatalf("opt-in full tier: %s", f32v[0].Name)
	}
	if _, ok := f32v[0].Model.(*quant.F32MLP); !ok {
		t.Fatalf("opt-in full tier model is %T", f32v[0].Model)
	}
	// The full tier was always priced as fp32 streaming; the opt-in makes
	// the executed path match the priced one, so the cost figure is equal.
	if f32v[0].Bytes != f64v[0].Bytes {
		t.Fatalf("f32 bytes %d should equal the fp32-priced %d", f32v[0].Bytes, f64v[0].Bytes)
	}
	if f32v[0].Accuracy < f64v[0].Accuracy-0.02 {
		t.Fatalf("f32 accuracy %g fell more than noise below %g", f32v[0].Accuracy, f64v[0].Accuracy)
	}
}

// TestHedgeCheckAllocations holds a warmed-up hedge check to 0
// allocations: hedgeLatency sorts its copy of the latency ring in the
// Server's scratch slice.
func TestHedgeCheckAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	s, err := NewServer(testConfig(1, 0, 1, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.recordLatency(float64((i * 37) % 101))
	}
	if _, ok := s.hedgeLatency(); !ok {
		t.Fatal("no hedge trigger after 100 latency samples")
	}
	if n := testing.AllocsPerRun(100, func() { s.hedgeLatency() }); n != 0 {
		t.Fatalf("a hedge check makes %v allocations, want 0", n)
	}
}

func TestServedMixAccuracyMeasured(t *testing.T) {
	vs, eval, err := BuildVariants(VariantsConfig{Seed: 42, Examples: 800, Epochs: 15})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v Variant) Replica {
		return Replica{Variant: v, Device: device.EdgeDevice, Efficiency: 0.5}
	}
	fleet := []Replica{mk(vs[0]), mk(vs[0]), mk(vs[1]), mk(vs[2]), mk(vs[3])}
	serviceFull := fleet[0].ServiceS()
	cfg := Config{
		Seed: 3, Replicas: fleet, Requests: 500, Fallback: true,
		ArrivalRate: 1.3 * 2 / serviceFull,
		Faults:      fault.Rate(3, 0.2),
		EvalX:       eval.X, EvalLabels: eval.Labels,
	}
	res := run(t, cfg)
	if res.MixAccuracy <= 0.5 || res.MixAccuracy > 1 {
		t.Fatalf("served-mix accuracy %.3f implausible", res.MixAccuracy)
	}
	// The mix accuracy cannot exceed the best variant's accuracy by more
	// than sampling noise on this fixed eval set.
	if res.MixAccuracy > vs[0].Accuracy+0.05 {
		t.Fatalf("mix accuracy %.3f above full-model accuracy %.3f", res.MixAccuracy, vs[0].Accuracy)
	}
}
