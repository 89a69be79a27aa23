package core

import (
	"fmt"
	"math"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/learned"
	"dlsys/internal/livedb"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
	"dlsys/internal/serve"
	"dlsys/internal/sim"
)

// X10 composes the whole stack into one "day in production": a guarded,
// Byzantine-robust distributed training job, a multi-tier serving fleet,
// an event-driven multi-tenant serving Fleet with its overload control
// plane, and an online learned-index maintenance engine share a single
// discrete-event kernel, while a declarative fault schedule walks the day
// through scheduled crashes, a straggler window, a flash crowd on the
// serving side, an open-ended Byzantine coalition, a numerical-fault
// burst, a corrupted-insert burst against the live index, and a flash
// crowd plus a tenant retry storm against the fleet. Six global
// invariants are checked across the composed system: (1) serving
// availability stays above a floor for the whole day; (2) training does
// not silently diverge — the final held-out loss stays within a small
// factor of the fault-free baseline, and every guard/quarantine incident
// reconciles with a scheduled fault; (3) the shared metric registry
// reconciles EXACTLY with all four subsystems' own ledgers; (4) the full
// day — metrics, traces, request ledger, quarantine ledger, index ledger,
// fleet ledger, and the kernel's event log — replays bit-identically;
// (5) the live index keeps 100% query availability down its fallback
// ladder while rolling back the corrupted burst and re-validating a
// retrained index; (6) every fleet tenant holds an availability floor
// through the crowd and the storm — the overload control plane isolates
// the abusive tenant.

func init() {
	register(Experiment{
		ID: "X10", Section: "3",
		Title: "A day in production: composed training + serving + fleet + live index under scheduled chaos",
		Claim: "Training, serving, the event-driven multi-tenant fleet, and online index maintenance composed on one simulation kernel survive a scheduled day of crashes, stragglers, flash crowds, a Byzantine coalition, a numerical-fault burst, a corrupted-insert burst, and a tenant retry storm: availability holds its floors (globally and per fleet tenant), training does not silently diverge, the index rides its fallback ladder without dropping a query, every counter reconciles exactly with the subsystem ledgers, and the whole day replays bit-identically",
		Run:   runX10,
	})
}

const (
	// x10AvailabilityFloor is the fraction of the day's requests that must
	// be served despite the scheduled chaos.
	x10AvailabilityFloor = 0.75
	// x10DivergenceCap bounds the final held-out loss relative to the
	// fault-free baseline: past it, training silently diverged.
	x10DivergenceCap = 5.0
	// x10LossFloor keeps the divergence ratio meaningful when the
	// fault-free loss is very small.
	x10LossFloor = 0.02
	// x10TenantFloor is the whole-day availability floor every fleet
	// tenant must hold despite the fleet's flash crowd and tenant 0's
	// retry storm.
	x10TenantFloor = 0.5
)

// chaosDay is the outcome of one composed production-day run.
type chaosDay struct {
	stats distributed.Stats
	res   serve.Result
	fres  serve.FleetResult
	loss  float64 // held-out loss of the final consensus model

	dbStats livedb.Stats
	dbWl    livedb.WorkloadStats

	processed int
	actors    []string

	regFP, traceFP, serveFP, repFP, kernelFP, dbFP, fleetFP uint64

	reconciled bool
	detail     string
}

// x10Scenario is the composed production day, fixed at construction time:
// the day length and every fault window derive from a fault-free probe of
// the same training job, so the schedule lands inside the run and run() is
// a pure function of its handle — the replay invariant depends on that.
type x10Scenario struct {
	dayS      float64 // fault-free training duration = the scheduled day
	cleanLoss float64 // held-out loss of the fault-free probe
	requests  int
	rate      float64
	run       func(h *obs.Handle) (*chaosDay, error)
}

func newX10Scenario(scale Scale) (*x10Scenario, error) {
	n, epochs, requests := 480, 10, 600
	if scale == Full {
		n, epochs, requests = 1600, 16, 2400
	}
	rng := rand.New(rand.NewSource(200))
	ds := data.GaussianMixture(rng, n, 6, 3, 3.2)
	train, test := ds.Split(rng, 0.8)
	y := nn.OneHot(train.Labels, 3)
	testY := nn.OneHot(test.Labels, 3)
	arch := nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3}

	heldOut := func(net *nn.Network) float64 {
		tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(0), rand.New(rand.NewSource(1)))
		return tr.ComputeGrad(test.X, testY)
	}

	baseTrain := distributed.Config{
		Workers: 8, Arch: arch, Epochs: epochs, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1, SnapshotPeriod: 3,
		Aggregator: robust.CoordMedian{},
		Guard:      &guard.Policy{Mode: guard.Enforce},
	}

	// Fault-free probe: fixes the day length the schedule is laid out on
	// (faults only lengthen the day, so windows placed inside the probe
	// duration land inside the real run) and the divergence baseline.
	probeNet, probeStats, err := distributed.Train(201, train.X, y, baseTrain)
	if err != nil {
		return nil, fmt.Errorf("x10 probe: %w", err)
	}
	day := probeStats.SimSeconds
	cleanLoss := math.Max(heldOut(probeNet), x10LossFloor)

	variants, eval, err := serve.BuildVariants(serve.VariantsConfig{
		Seed: 210, Examples: n, Epochs: epochs,
	})
	if err != nil {
		return nil, fmt.Errorf("x10 variants: %w", err)
	}
	mk := func(v serve.Variant) serve.Replica {
		return serve.Replica{Variant: v, Device: device.EdgeDevice, Efficiency: 0.5}
	}
	fleet := []serve.Replica{mk(variants[0]), mk(variants[0]), mk(variants[1]), mk(variants[2]), mk(variants[3])}
	// The serving day spans the training day: fixed request count, rate
	// derived from the probe duration.
	rate := float64(requests) / day

	// The production-day schedule, in absolute kernel seconds. Training and
	// serving each get their own injector (separate seeds, separate draw
	// streams) but the windows are laid out on the one shared timeline.
	trainFaults := fault.Config{Seed: 202, Schedule: []fault.Window{
		// Morning: worker 3 crash-loops, rejoining from snapshots.
		{Kind: fault.KindCrash, Workers: []int{3}, StartS: 0.05 * day, EndS: 0.20 * day, Prob: 0.6},
		// Midday: cluster-wide straggler weather.
		{Kind: fault.KindStraggle, StartS: 0.20 * day, EndS: 0.45 * day, Prob: 0.4, Factor: 4},
		// Afternoon, open-ended: workers 5 and 6 turn Byzantine.
		{Kind: fault.KindSignFlip, Workers: []int{5, 6}, StartS: 0.50 * day},
		// Evening: a numerical-fault burst the guard must screen.
		{Kind: fault.KindBatchCorrupt, StartS: 0.70 * day, EndS: 0.95 * day, Prob: 0.5},
	}}
	serveFaults := fault.Config{Seed: 211, Schedule: []fault.Window{
		// Mid-morning: replica 1 becomes crash-prone.
		{Kind: fault.KindCrash, Workers: []int{1}, StartS: 0.15 * day, EndS: 0.25 * day, Prob: 0.05},
		// Midday flash crowd: arrivals spike 6x.
		{Kind: fault.KindArrival, StartS: 0.30 * day, EndS: 0.40 * day, Factor: 6},
		// Afternoon: fleet-wide straggling.
		{Kind: fault.KindStraggle, StartS: 0.55 * day, EndS: 0.70 * day, Prob: 0.3, Factor: 6},
	}}

	// The event-driven multi-tenant fleet shares the same day. Request
	// volume and service time scale off the probe duration so it runs at
	// rho = 0.8 on its four initial replicas (per-item service is 0.4x
	// ServiceS at full batch, so capacity = 10/ServiceS); its own flash
	// crowd lands on the midday spike and tenant 0 turns abusive in the
	// late afternoon. The full overload control plane is on.
	fleetReqs := 2400
	if scale == Full {
		fleetReqs = 9600
	}
	fleetRate := float64(fleetReqs) / day
	fltCfg := serve.FleetConfig{
		Seed: 230,
		Faults: fault.Config{Seed: 231, Schedule: []fault.Window{
			// Midday flash crowd, aligned with the serving tier's.
			{Kind: fault.KindArrival, StartS: 0.30 * day, EndS: 0.40 * day, Factor: 4},
			// Late afternoon: tenant 0's clients retry x3 as aggressively.
			{Kind: fault.KindRetryStorm, Workers: []int{0}, StartS: 0.55 * day, EndS: 0.70 * day, Factor: 3},
		}},
		Tenants:     8,
		Requests:    fleetReqs,
		ArrivalRate: fleetRate,
		Replicas:    4,
		ServiceS:    8 / fleetRate,
	}
	fltCfg.Admission.Adaptive = true
	fltCfg.Autoscale.MaxReplicas = 8
	fltCfg.Autoscale.IntervalS = day / 50
	fltCfg.Autoscale.LagS = day / 25
	fltCfg.Autoscale.CooldownS = day / 25

	// The live learned index shares the same day: its maintenance cadence
	// scales with the probe duration so retrains, rollbacks, and the swap
	// all land inside the run, and its corrupted-insert burst sits in the
	// early afternoon between the flash crowd and the straggler weather.
	idxOps := 600
	if scale == Full {
		idxOps = 1800
	}
	idxKeys := learned.ClusteredKeys(rand.New(rand.NewSource(220)), 4*n, 4, 1<<44)
	idxCfg := livedb.Config{
		Seed:          221,
		MaintainEvery: day / 60,
		RetrainS:      day / 24,
		CooldownS:     day / 40,
	}
	idxWl := livedb.WorkloadConfig{
		Seed:         222,
		Ops:          idxOps,
		Rate:         float64(idxOps) / day,
		ClusterWidth: 1 << 38,
		Space:        idxKeys[len(idxKeys)-1],
		Phases: []livedb.Phase{
			{StartS: 0},
			// Afternoon drift: inserts and hard-negative lookups move to a
			// fresh cluster the initial index never saw.
			{StartS: 0.45 * day, Clusters: []uint64{9 << 40}, HardNegFrac: 0.4},
		},
		Faults: fault.Config{Seed: 223, Schedule: []fault.Window{
			// Early afternoon: a corrupted-insert burst against the index.
			{Kind: fault.KindCorrupt, StartS: 0.40 * day, EndS: 0.60 * day, Prob: 0.25},
		}},
	}

	run := func(h *obs.Handle) (*chaosDay, error) {
		k := sim.New()

		trainCfg := baseTrain
		trainCfg.Fault = trainFaults
		trainCfg.Reputation = &robust.ReputationConfig{}
		trainCfg.Obs = h
		trainCfg.Kernel = k
		job, err := distributed.NewJob(201, train.X, y, trainCfg)
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(serve.Config{
			Seed:          212,
			Faults:        serveFaults,
			Replicas:      fleet,
			ArrivalRate:   rate,
			Requests:      requests,
			HedgeQuantile: 0.9,
			Fallback:      true,
			EvalX:         eval.X,
			EvalLabels:    eval.Labels,
			Obs:           h,
			Kernel:        k,
		})
		if err != nil {
			return nil, err
		}

		ecfg := idxCfg
		ecfg.Kernel = k
		ecfg.Obs = h
		eng, err := livedb.NewEngine(idxKeys, ecfg)
		if err != nil {
			return nil, err
		}
		wl, err := livedb.NewWorkload(eng, idxKeys, idxWl)
		if err != nil {
			return nil, err
		}

		fc := fltCfg
		fc.Kernel = k
		fc.Obs = h
		flt, err := serve.NewFleet(fc)
		if err != nil {
			return nil, err
		}

		// All four subsystems schedule their first event at t=0, then the
		// kernel interleaves the whole day deterministically.
		job.Start()
		srv.Start()
		eng.Start()
		wl.Start()
		flt.Start()
		k.Run()

		net, stats, err := job.Result()
		if err != nil {
			return nil, err
		}
		res := srv.Result()
		fres := flt.Result()

		d := &chaosDay{
			stats:     stats,
			res:       res,
			fres:      fres,
			loss:      heldOut(net),
			dbStats:   eng.Stats(),
			dbWl:      wl.Stats(),
			processed: k.Processed(),
			actors:    k.Actors(),
			serveFP:   res.Fingerprint(),
			kernelFP:  k.Fingerprint(),
			dbFP:      eng.Ledger().Fingerprint(),
			fleetFP:   fres.LedgerFP,
		}
		if stats.Quarantine != nil {
			d.repFP = stats.Quarantine.Fingerprint()
		}
		d.regFP = h.Reg.Fingerprint()
		d.traceFP = h.Tracer.Fingerprint()

		// Invariant 3: every counter on the SHARED registry reconciles
		// exactly with the subsystem's own ledger — all four subsystems
		// wrote into one handle for the whole day.
		r := &reconciler{h: h}
		r.eq("distributed.retransmissions", int64(stats.Retransmissions))
		r.eq("distributed.dropped_messages", int64(stats.DroppedMessages))
		r.eq("distributed.corruptions", int64(stats.Corruptions))
		r.eq("distributed.timeouts", int64(stats.Timeouts))
		r.eq("distributed.crashes", int64(stats.Crashes))
		r.eq("distributed.rejoins", int64(stats.Rejoins))
		r.eq("distributed.restores", int64(stats.Restores))
		r.eq("distributed.snapshots", int64(stats.Snapshots))
		r.eq("distributed.snapshot_bytes", stats.SnapshotBytes)
		r.eq("distributed.straggler_rounds", int64(stats.StragglerRounds))
		r.eq("distributed.excluded_slow", int64(stats.ExcludedSlow))
		r.eq("distributed.numerical_faults", int64(stats.NumericalFaults))
		r.eq("distributed.guard_skipped", int64(stats.GuardSkipped))
		r.eq("distributed.guard_restores", int64(stats.GuardRestores))
		r.eq("distributed.averaging_rounds", int64(stats.AveragingRound))
		r.eq("distributed.steps", int64(stats.Steps))
		r.eq("distributed.bytes_sent", stats.BytesSent)
		r.gaugeEq("distributed.sim_seconds", stats.SimSeconds)
		r.eq("serve.served", int64(res.Served))
		r.eq("serve.shed", int64(res.Shed))
		r.eq("serve.failed", int64(res.Failed))
		r.eq("serve.hedges_launched", int64(res.HedgesLaunched))
		r.eq("serve.hedge_wins", int64(res.HedgeWins))
		r.eq("serve.breaker_opened", int64(res.BreakerOpened))
		r.eq("serve.breaker_reclosed", int64(res.BreakerReclosed))
		for tier := serve.TierFull; tier < serve.Tier(4); tier++ {
			r.eq("serve.tier."+tier.String()+".served", int64(res.TierCounts[tier]))
			hist := h.Reg.Histogram("serve.tier."+tier.String()+".latency_seconds", nil)
			r.check(hist.Count() == int64(res.TierCounts[tier]),
				fmt.Sprintf("tier %s latency count %d want %d", tier, hist.Count(), res.TierCounts[tier]))
			var want float64
			for _, rec := range res.Records {
				if rec.Outcome == serve.Served && rec.Tier == tier {
					want += rec.LatencyS
				}
			}
			r.check(hist.Sum() == want,
				fmt.Sprintf("tier %s latency sum %g want %g", tier, hist.Sum(), want))
		}
		st, led := d.dbStats, eng.Ledger()
		r.eq("livedb.lookups", int64(st.Lookups))
		r.eq("livedb.range_scans", int64(st.RangeScans))
		r.eq("livedb.inserts", int64(st.Stored))
		r.eq("livedb.duplicates", int64(st.Duplicates))
		r.eq("livedb.retrains", int64(st.Retrains))
		r.eq("livedb.swaps", int64(st.Swaps))
		r.eq("livedb.rollbacks", int64(st.Rollbacks))
		r.eq("livedb.quarantined", int64(st.Quarantined))
		for tier := livedb.TierLearned; int(tier) < livedb.NumTiers; tier++ {
			r.eq("livedb.tier."+tier.String()+".served", int64(st.TierServed[tier]))
		}
		r.check(led.Count(livedb.EvRetrainStart) == st.Retrains, "index ledger retrains != stats")
		r.check(led.Count(livedb.EvSwap) == st.Swaps, "index ledger swaps != stats")
		r.check(led.Count(livedb.EvRollback) == st.Rollbacks, "index ledger rollbacks != stats")
		r.check(led.SumN(livedb.EvRollback) == st.Quarantined, "index ledger quarantined != stats")
		r.eq("fleet.arrived", int64(fres.Requests))
		r.eq("fleet.served", int64(fres.Served))
		r.eq("fleet.shed", int64(fres.Shed))
		r.eq("fleet.failed", int64(fres.Failed))
		r.eq("fleet.retries", int64(fres.Retries))
		r.eq("fleet.retries_denied", int64(fres.RetriesDenied))
		r.eq("fleet.cache_hits", int64(fres.CacheHits))
		r.eq("fleet.cache_misses", int64(fres.CacheMisses))
		r.eq("fleet.scale_up_replicas", int64(fres.ScaleUpReplicas))
		r.eq("fleet.scale_down_replicas", int64(fres.ScaleDownReplicas))
		for i, ts := range fres.Tenants {
			r.eq(serve.TenantCounterName(i, "arrived"), int64(ts.Arrived))
			r.eq(serve.TenantCounterName(i, "served"), int64(ts.Served))
			r.eq(serve.TenantCounterName(i, "shed"), int64(ts.Shed))
			r.eq(serve.TenantCounterName(i, "failed"), int64(ts.Failed))
		}
		r.check(h.Tracer.Len() > 0, "no spans recorded")
		d.reconciled, d.detail = r.result()
		return d, nil
	}

	return &x10Scenario{dayS: day, cleanLoss: cleanLoss, requests: requests, rate: rate, run: run}, nil
}

// offendersWithin reports whether every quarantined worker is in the
// scheduled coalition (nil ledger = nobody quarantined = vacuously true).
func offendersWithin(led *robust.Ledger, coalition ...int) bool {
	if led == nil {
		return true
	}
	for _, w := range led.Offenders() {
		ok := false
		for _, c := range coalition {
			if w == c {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func runX10(scale Scale) *Table {
	t := &Table{ID: "X10", Title: "A day in production",
		Claim:   "composed training + serving + fleet + live index on one kernel survive scheduled chaos: availability floors hold (globally and per fleet tenant), no silent training divergence, the index ladder never drops a query, exact cross-subsystem reconciliation, bit-identical replay",
		Columns: []string{"check", "detail", "ok"}}

	sc, err := newX10Scenario(scale)
	if err != nil {
		t.AddRow("scenario", err.Error(), yesNo(false))
		t.Shape = "scenario construction failed"
		return t
	}

	h1 := obs.NewHandle()
	d1, err1 := sc.run(h1)
	h2 := obs.NewHandle()
	d2, err2 := sc.run(h2)
	if err1 != nil || err2 != nil {
		t.AddRow("run", fmt.Sprintf("%v / %v", err1, err2), yesNo(false))
		t.Shape = "composed run failed"
		return t
	}

	t.AddRow("timeline",
		fmt.Sprintf("day=%.4gs sim=%.4gs events=%d actors=%v",
			sc.dayS, d1.stats.SimSeconds, d1.processed, d1.actors),
		yesNo(d1.processed > 0 && len(d1.actors) == 7))

	t.AddRow("chaos-observed",
		fmt.Sprintf("crashes=%d straggler_rounds=%d byzantine=%d numerical=%d guard_skipped=%d quarantines=%d offenders=%s",
			d1.stats.Crashes, d1.stats.StragglerRounds, d1.stats.ByzantineAttacks,
			d1.stats.NumericalFaults, d1.stats.GuardSkipped,
			d1.stats.Quarantines, d1.stats.Quarantine.OffenderString()),
		yesNo(d1.stats.Crashes > 0 && d1.stats.StragglerRounds > 0 &&
			d1.stats.ByzantineAttacks > 0 && d1.stats.NumericalFaults > 0))

	avail := d1.res.Availability
	complete := d1.res.Served+d1.res.Shed+d1.res.Failed == sc.requests
	// The flash crowd pushes the top tier past capacity; the fleet must
	// absorb it by degrading some requests to cheaper tiers (or shedding)
	// rather than failing — degraded > 0 is the evidence the spike bit.
	degraded := d1.res.Served - d1.res.TierCounts[serve.TierFull]
	okAvail := avail >= x10AvailabilityFloor && complete && degraded > 0
	t.AddRow("invariant-1-availability",
		fmt.Sprintf("availability=%.4g floor=%.4g served=%d shed=%d failed=%d of %d degraded=%d hedges=%d",
			avail, x10AvailabilityFloor, d1.res.Served, d1.res.Shed, d1.res.Failed,
			sc.requests, degraded, d1.res.HedgesLaunched),
		yesNo(okAvail))

	ratio := d1.loss / sc.cleanLoss
	okLoss := !math.IsNaN(ratio) && !math.IsInf(ratio, 0) && ratio <= x10DivergenceCap
	// Guard incidents must reconcile with the injected faults: the guard
	// only fires where the schedule poisoned a batch, and the quarantine
	// ledger names only scheduled coalition members.
	okIncidents := d1.stats.GuardSkipped > 0 &&
		d1.stats.GuardSkipped <= d1.stats.NumericalFaults &&
		d1.stats.Quarantines >= 1 &&
		offendersWithin(d1.stats.Quarantine, 5, 6)
	t.AddRow("invariant-2-integrity",
		fmt.Sprintf("held_out=%.4g clean=%.4g ratio=%.4g cap=%.4g", d1.loss, sc.cleanLoss, ratio, x10DivergenceCap),
		yesNo(okLoss && okIncidents))

	detail := d1.detail
	if detail == "" {
		detail = "every counter exact on the shared registry"
	}
	t.AddRow("invariant-3-reconcile", detail, yesNo(d1.reconciled && d2.reconciled))

	replay := d1.regFP == d2.regFP && d1.traceFP == d2.traceFP &&
		d1.serveFP == d2.serveFP && d1.repFP == d2.repFP &&
		d1.kernelFP == d2.kernelFP && d1.dbFP == d2.dbFP &&
		d1.fleetFP == d2.fleetFP
	t.AddRow("invariant-4-replay",
		fmt.Sprintf("reg=%016x trace=%016x ledger=%016x quarantine=%016x kernel=%016x index=%016x fleet=%016x",
			d1.regFP, d1.traceFP, d1.serveFP, d1.repFP, d1.kernelFP, d1.dbFP, d1.fleetFP),
		yesNo(replay))

	// Invariant 5: the live index never dropped a query — every lookup and
	// range scan was answered by exactly one ladder tier and agreed with
	// the client-side oracle of acked writes — while the corrupted burst
	// forced at least one rollback that quarantined exactly the injected
	// keys, a later retrain re-validated and swapped, and no validated
	// index was ever probed past its declared search window.
	dbOK := d1.dbStats.ServedTotal() == d1.dbStats.Queries() &&
		d1.dbWl.Mismatches == 0 &&
		d1.dbWl.CorruptedSent > 0 &&
		d1.dbStats.Quarantined == d1.dbWl.CorruptedSent &&
		d1.dbStats.Rollbacks > 0 && d1.dbStats.Swaps > 0 &&
		d1.dbStats.WindowViolations == 0
	t.AddRow("invariant-5-index",
		fmt.Sprintf("queries=%d mismatches=%d retrains=%d swaps=%d rollbacks=%d quarantined=%d corrupted=%d learned=%d delta=%d btree=%d scan=%d",
			d1.dbStats.Queries(), d1.dbWl.Mismatches, d1.dbStats.Retrains,
			d1.dbStats.Swaps, d1.dbStats.Rollbacks, d1.dbStats.Quarantined,
			d1.dbWl.CorruptedSent,
			d1.dbStats.TierServed[livedb.TierLearned], d1.dbStats.TierServed[livedb.TierDelta],
			d1.dbStats.TierServed[livedb.TierBTree], d1.dbStats.TierServed[livedb.TierScan]),
		yesNo(dbOK))

	// Invariant 6: the fleet's overload control plane holds every tenant
	// above the availability floor through its flash crowd and tenant 0's
	// retry storm, finalizes every request, and the retries counter shows
	// the storm actually bit.
	minTenant := 1.0
	for _, ts := range d1.fres.Tenants {
		if ts.Availability < minTenant {
			minTenant = ts.Availability
		}
	}
	fleetComplete := d1.fres.Served+d1.fres.Shed+d1.fres.Failed == d1.fres.Requests
	t.AddRow("invariant-6-tenants",
		fmt.Sprintf("min_tenant_availability=%.4g floor=%.4g overall=%.4g tenants=%d retries=%d denied=%d served=%d of %d",
			minTenant, x10TenantFloor, d1.fres.Availability, len(d1.fres.Tenants),
			d1.fres.Retries, d1.fres.RetriesDenied, d1.fres.Served, d1.fres.Requests),
		yesNo(fleetComplete && len(d1.fres.Tenants) == 8 &&
			minTenant >= x10TenantFloor && d1.fres.Retries > 0))

	t.Shape = "one shared kernel drives all four subsystems through the scheduled day; availability holds its floors globally and per fleet tenant, training stays near the fault-free loss with guard and quarantine incidents matching the schedule, the live index rides its fallback ladder through the corrupted burst without dropping a query, all counters reconcile exactly, and every fingerprint replays bit-identically"
	return t
}
