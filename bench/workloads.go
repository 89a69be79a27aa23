package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

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
	"dlsys/internal/tensor"
)

// Every workload is a batch simulation or kernel call driven by one caller
// in a closed loop: one client, no think time. Arrival rates and crowds
// exist only in simulated time. Each workload reproduces one experiment's
// hardest cell at seed 0; any other seed shifts every sub-seed the
// experiment uses by the same amount, so seed 0 needs no special case.

// workload is one benchmark workload: a name, the reason it exists, the
// default number of timed reps, and a set-up that generates the inputs and
// returns the function running one rep over them.
//
// A workload whose work depends on its seed runs several cells, each set
// up from its own seed (cellSeed), with the timed reps taking them in
// turn: its metrics are means over the cells, so one run's value moves
// less from seed to seed.
type workload struct {
	name  string
	why   string
	reps  int
	cells int // 0 means 1
	setup func(seed int64, full bool) (repFunc, error)
}

// repFunc runs one rep. With a nil tracer it runs untraced; the traced rep
// passes a tracer that times every kernel step and records spans.
type repFunc func(tr *tracer) outcome

// outcome is what one rep produced, read off the public results.
type outcome struct {
	digest uint64
	// kernelFP and ledgerFP are the kernel's event-log fingerprint and the
	// workload's request or index ledger fingerprint, both folded into
	// digest; the fidelity test matches them against the experiments.
	kernelFP, ledgerFP uint64
	fail               string // the first invariant that failed; "" when the rep is correct
	// ops counts the rep's operations: kernel events, or tensor calls on
	// gemm. It is the base of go.alloc_bytes_per_event.
	ops int

	// work holds the numerators of the throughput metrics; secs, where
	// present, replaces the rep's wall as a metric's denominator.
	work map[string]float64
	secs map[string]float64
	// layer holds per-layer counts read off the rep's results.
	layer map[string]float64

	handle *obs.Handle // the registry the benchmark passed in, if any
	// probe times layer calls that need the rep's final state or inputs;
	// it runs after the traced rep only.
	probe func(tr *tracer) map[string]float64
}

// workloads is the fixed workload list, in run order.
var workloads = []workload{
	{name: "fleet-overload", reps: 9, setup: setupFleet(true),
		why: "X14 full-control-plane day: the event loop and fleet handlers do almost all the work, so sim, serve and obs changes show here"},
	{name: "fleet-collapse", reps: 7, setup: setupFleet(false),
		why: "X14 day with the control plane off: a deep heap and a retry-dominated event mix in the same layers"},
	{name: "day", reps: 16, cells: 8, setup: setupDay,
		why: "X10 composed day on one kernel: cross-subsystem traffic where the kernel is a small share of wall"},
	{name: "live-index", reps: 16, cells: 16, setup: setupLiveIndex,
		why: "X11 flash-drift x bursty-corruption cell: writes drive learned-index retrains, which dominate the run"},
	{name: "elastic-train", reps: 31, setup: setupElastic,
		why: "X12 hardest cell: ring all-reduce at n=256 with link faults and churn, the collective exchange path"},
	{name: "gemm", reps: 15, setup: setupGEMM,
		why: "MatMul and MatMul32 at 1024^3: large-kernel throughput no simulator workload reaches"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest folds the fingerprints and result counts of one rep into one
// value with FNV-1a, so a rep whose simulation diverged from the first
// rep's is caught even when every invariant holds.
func digest(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// invariant is one output check of a rep: whether it held, and what to
// report when it did not.
type invariant struct {
	ok  bool
	msg string
}

// firstFailed returns the message of the first invariant that does not
// hold, or "".
func firstFailed(invs ...invariant) string {
	for _, inv := range invs {
		if !inv.ok {
			return inv.msg
		}
	}
	return ""
}

// fleetConfig mirrors X14's overload day: 10 replicas, 20k req/s offered,
// a x4 flash crowd over [0.5, 0.8) virtual seconds. fullPlane turns the
// whole overload control plane on; off also fixes the queue cap and
// disables autoscaling and the cache.
func fleetConfig(seed int64, requests int, fullPlane bool) serve.FleetConfig {
	cfg := serve.FleetConfig{
		Seed: seed + 300,
		Faults: fault.Config{Seed: seed + 300, Schedule: []fault.Window{
			{Kind: fault.KindArrival, StartS: 0.5, EndS: 0.8, Factor: 4},
		}},
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

// fleetLayer reads the serving layer's counts off a fleet result.
func fleetLayer(layer map[string]float64, res serve.FleetResult) {
	layer["serve.fleet.retries"] = float64(res.Retries)
	layer["serve.fleet.retries_denied"] = float64(res.RetriesDenied)
	layer["serve.fleet.shed"] = float64(res.Shed)
	if n := res.CacheHits + res.CacheMisses; n > 0 {
		layer["serve.fleet.cache_hit_rate"] = float64(res.CacheHits) / float64(n)
	}
	layer["serve.fleet.useful_frac"] = float64(res.Served) / float64(res.Requests+res.Retries)
	layer["serve.fleet.peak_replicas"] = float64(res.PeakReplicas)
}

func setupFleet(fullPlane bool) func(int64, bool) (repFunc, error) {
	return func(seed int64, full bool) (repFunc, error) {
		requests := 200_000
		if full {
			requests = 1_200_000
		}
		cfg := fleetConfig(seed, requests, fullPlane)
		return func(tr *tracer) outcome {
			k, h := sim.New(), obs.NewHandle()
			c := cfg
			c.Kernel, c.Obs = k, h
			var f *serve.Fleet
			var err error
			tr.span("serve.NewFleet", func() { f, err = serve.NewFleet(c) })
			if err != nil {
				return outcome{fail: err.Error()}
			}
			tr.span("Fleet.Start", f.Start)
			tr.run(k)
			var res serve.FleetResult
			tr.span("Fleet.Result", func() { res = f.Result() })
			o := outcome{
				digest: digest(k.Fingerprint(), res.LedgerFP, uint64(k.Processed()),
					uint64(res.Served), uint64(res.Shed), uint64(res.Failed), uint64(res.Retries)),
				kernelFP: k.Fingerprint(), ledgerFP: res.LedgerFP,
				fail:   firstFailed(invariant{res.Served+res.Shed+res.Failed == res.Requests, "fleet: served+shed+failed != requests"}),
				ops:    k.Processed(),
				work:   map[string]float64{"events_per_s": float64(k.Processed()), "sim_req_per_s": float64(res.Requests)},
				layer:  map[string]float64{},
				handle: h,
			}
			fleetLayer(o.layer, res)
			return o
		}, nil
	}
}

// dayInputs is the X10 production day fixed at set-up: the probe-derived
// day length and every subsystem's config, so a rep only builds and runs.
type dayInputs struct {
	trainX, trainY *tensor.Tensor
	train          distributed.Config
	trainSeed      int64
	srv            serve.Config
	idxKeys        []uint64
	idx            livedb.Config
	idxWl          livedb.WorkloadConfig
	flt            serve.FleetConfig
}

// newDayInputs mirrors X10's scenario construction: the fault-free probe
// run fixes the day length the fault schedule is laid out on, and the
// serving variants, index keys and fleet are sized off it.
func newDayInputs(seed int64, full bool) (*dayInputs, error) {
	n, epochs, requests, fleetReqs, idxOps := 480, 10, 600, 2400, 600
	if full {
		n, epochs, requests, fleetReqs, idxOps = 1600, 16, 2400, 9600, 1800
	}
	rng := rand.New(rand.NewSource(seed + 200))
	ds := data.GaussianMixture(rng, n, 6, 3, 3.2)
	train, _ := ds.Split(rng, 0.8)
	in := &dayInputs{trainX: train.X, trainY: nn.OneHot(train.Labels, 3), trainSeed: seed + 201}
	in.train = distributed.Config{
		Workers: 8, Arch: nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3}, Epochs: epochs,
		BatchSize: 16, LR: 0.1, AveragePeriod: 1, SnapshotPeriod: 3,
		Aggregator: robust.CoordMedian{},
		Guard:      &guard.Policy{Mode: guard.Enforce},
	}
	_, probe, err := distributed.Train(in.trainSeed, in.trainX, in.trainY, in.train)
	if err != nil {
		return nil, fmt.Errorf("day probe: %w", err)
	}
	day := probe.SimSeconds
	in.train.Fault = fault.Config{Seed: seed + 202, Schedule: []fault.Window{
		{Kind: fault.KindCrash, Workers: []int{3}, StartS: 0.05 * day, EndS: 0.20 * day, Prob: 0.6},
		{Kind: fault.KindStraggle, StartS: 0.20 * day, EndS: 0.45 * day, Prob: 0.4, Factor: 4},
		{Kind: fault.KindSignFlip, Workers: []int{5, 6}, StartS: 0.50 * day},
		{Kind: fault.KindBatchCorrupt, StartS: 0.70 * day, EndS: 0.95 * day, Prob: 0.5},
	}}

	variants, eval, err := serve.BuildVariants(serve.VariantsConfig{Seed: seed + 210, Examples: n, Epochs: epochs})
	if err != nil {
		return nil, fmt.Errorf("day variants: %w", err)
	}
	rep := func(v serve.Variant) serve.Replica {
		return serve.Replica{Variant: v, Device: device.EdgeDevice, Efficiency: 0.5}
	}
	in.srv = serve.Config{
		Seed: seed + 212,
		Faults: fault.Config{Seed: seed + 211, Schedule: []fault.Window{
			{Kind: fault.KindCrash, Workers: []int{1}, StartS: 0.15 * day, EndS: 0.25 * day, Prob: 0.05},
			{Kind: fault.KindArrival, StartS: 0.30 * day, EndS: 0.40 * day, Factor: 6},
			{Kind: fault.KindStraggle, StartS: 0.55 * day, EndS: 0.70 * day, Prob: 0.3, Factor: 6},
		}},
		Replicas:      []serve.Replica{rep(variants[0]), rep(variants[0]), rep(variants[1]), rep(variants[2]), rep(variants[3])},
		ArrivalRate:   float64(requests) / day,
		Requests:      requests,
		HedgeQuantile: 0.9,
		Fallback:      true,
		EvalX:         eval.X,
		EvalLabels:    eval.Labels,
	}

	fleetRate := float64(fleetReqs) / day
	in.flt = serve.FleetConfig{
		Seed: seed + 230,
		Faults: fault.Config{Seed: seed + 231, Schedule: []fault.Window{
			{Kind: fault.KindArrival, StartS: 0.30 * day, EndS: 0.40 * day, Factor: 4},
			{Kind: fault.KindRetryStorm, Workers: []int{0}, StartS: 0.55 * day, EndS: 0.70 * day, Factor: 3},
		}},
		Tenants:     8,
		Requests:    fleetReqs,
		ArrivalRate: fleetRate,
		Replicas:    4,
		ServiceS:    8 / fleetRate,
	}
	in.flt.Admission.Adaptive = true
	in.flt.Autoscale.MaxReplicas = 8
	in.flt.Autoscale.IntervalS = day / 50
	in.flt.Autoscale.LagS = day / 25
	in.flt.Autoscale.CooldownS = day / 25

	in.idxKeys = learned.ClusteredKeys(rand.New(rand.NewSource(seed+220)), 4*n, 4, 1<<44)
	in.idx = livedb.Config{Seed: seed + 221, MaintainEvery: day / 60, RetrainS: day / 24, CooldownS: day / 40}
	in.idxWl = livedb.WorkloadConfig{
		Seed:         seed + 222,
		Ops:          idxOps,
		Rate:         float64(idxOps) / day,
		ClusterWidth: 1 << 38,
		Space:        in.idxKeys[len(in.idxKeys)-1],
		Phases: []livedb.Phase{
			{StartS: 0},
			{StartS: 0.45 * day, Clusters: []uint64{9 << 40}, HardNegFrac: 0.4},
		},
		Faults: fault.Config{Seed: seed + 223, Schedule: []fault.Window{
			{Kind: fault.KindCorrupt, StartS: 0.40 * day, EndS: 0.60 * day, Prob: 0.25},
		}},
	}
	return in, nil
}

func setupDay(seed int64, full bool) (repFunc, error) {
	in, err := newDayInputs(seed, full)
	if err != nil {
		return nil, err
	}
	return in.rep, nil
}

// rep builds the four subsystems fresh on one benchmark-owned kernel and
// one shared registry, runs the day, and collects every result.
func (in *dayInputs) rep(tr *tracer) outcome {
	k, h := sim.New(), obs.NewHandle()
	var (
		job *distributed.Job
		srv *serve.Server
		eng *livedb.Engine
		wl  *livedb.Workload
		flt *serve.Fleet
		err error
	)
	tr.span("distributed.NewJob", func() {
		c := in.train
		c.Reputation = &robust.ReputationConfig{}
		c.Obs, c.Kernel = h, k
		job, err = distributed.NewJob(in.trainSeed, in.trainX, in.trainY, c)
	})
	if err == nil {
		tr.span("serve.NewServer", func() {
			c := in.srv
			c.Obs, c.Kernel = h, k
			srv, err = serve.NewServer(c)
		})
	}
	if err == nil {
		tr.span("livedb.NewEngine", func() {
			c := in.idx
			c.Obs, c.Kernel = h, k
			eng, err = livedb.NewEngine(in.idxKeys, c)
		})
	}
	if err == nil {
		tr.span("livedb.NewWorkload", func() { wl, err = livedb.NewWorkload(eng, in.idxKeys, in.idxWl) })
	}
	if err == nil {
		tr.span("serve.NewFleet", func() {
			c := in.flt
			c.Obs, c.Kernel = h, k
			flt, err = serve.NewFleet(c)
		})
	}
	if err != nil {
		return outcome{fail: err.Error()}
	}
	tr.span("Start", func() {
		job.Start()
		srv.Start()
		eng.Start()
		wl.Start()
		flt.Start()
	})
	tr.run(k)

	var (
		stats distributed.Stats
		res   serve.Result
		fres  serve.FleetResult
	)
	tr.span("Result", func() {
		_, stats, err = job.Result()
		res = srv.Result()
		fres = flt.Result()
	})
	if err != nil {
		return outcome{fail: err.Error()}
	}
	var quarantineFP uint64
	if stats.Quarantine != nil {
		quarantineFP = stats.Quarantine.Fingerprint()
	}
	st, ws := eng.Stats(), wl.Stats()
	o := outcome{
		digest: digest(k.Fingerprint(), res.Fingerprint(), quarantineFP, eng.Ledger().Fingerprint(), fres.LedgerFP,
			uint64(k.Processed()), uint64(stats.Steps), uint64(res.Served), uint64(fres.Served), uint64(st.Queries())),
		kernelFP: k.Fingerprint(), ledgerFP: eng.Ledger().Fingerprint(),
		fail: firstFailed(
			invariant{job.Done(), "day: training did not finish"},
			invariant{res.Served+res.Shed+res.Failed == in.srv.Requests, "day: server did not finalize every request"},
			invariant{fres.Served+fres.Shed+fres.Failed == fres.Requests, "day: fleet did not finalize every request"},
			invariant{ws.Ops == in.idxWl.Ops, "day: index workload did not issue every op"},
		),
		ops:  k.Processed(),
		work: map[string]float64{"events_per_s": float64(k.Processed())},
		layer: map[string]float64{
			"distributed.rounds":          float64(stats.Steps),
			"distributed.comm_rounds":     float64(stats.CommRounds),
			"distributed.retransmissions": float64(stats.Retransmissions),
			"distributed.topo_heals":      float64(stats.TopoHeals),
		},
		handle: h,
	}
	fleetLayer(o.layer, fres)
	livedbLayer(o.layer, st)
	o.probe = func(tr *tracer) map[string]float64 { return indexProbes(tr, in.idxKeys, eng) }
	return o
}

func livedbLayer(layer map[string]float64, st livedb.Stats) {
	layer["livedb.retrains"] = float64(st.Retrains)
	layer["livedb.swaps"] = float64(st.Swaps)
	layer["livedb.rollbacks"] = float64(st.Rollbacks)
}

// liveIndexCell mirrors X11's flash-drift x bursty-corruption cell: the
// insert stream jumps to an unseen cluster halfway through, with hard
// negatives, and two corrupted-insert bursts hit the schema fence.
func liveIndexCell(seed int64, ops int, rate float64) livedb.WorkloadConfig {
	T := float64(ops) / rate
	return livedb.WorkloadConfig{
		Seed:         seed,
		Ops:          ops,
		Rate:         rate,
		ClusterWidth: 1 << 38,
		Phases: []livedb.Phase{
			{StartS: 0},
			{StartS: 0.5 * T, Clusters: []uint64{13 << 40}, HardNegFrac: 0.7},
		},
		Faults: fault.Config{Seed: seed + 7, Schedule: []fault.Window{
			{Kind: fault.KindCorrupt, StartS: 0.15 * T, EndS: 0.3 * T, Prob: 0.25},
			{Kind: fault.KindCorrupt, StartS: 0.65 * T, EndS: 0.75 * T, Prob: 0.25},
		}},
	}
}

func setupLiveIndex(seed int64, full bool) (repFunc, error) {
	nKeys, ops, rate := 2000, 1600, 400.0
	if full {
		nKeys, ops, rate = 6000, 6000, 400.0
	}
	// X11 derives the flash x bursty cell's seed as 300 + 10*len("flash") +
	// len("bursty").
	cellSeed := seed + 356
	initial := learned.ClusteredKeys(rand.New(rand.NewSource(cellSeed)), nKeys, 4, 1<<44)
	wcfg := liveIndexCell(cellSeed+1, ops, rate)
	wcfg.Space = initial[len(initial)-1]
	return func(tr *tracer) outcome {
		k, h := sim.New(), obs.NewHandle()
		var (
			eng *livedb.Engine
			wl  *livedb.Workload
			err error
		)
		tr.span("livedb.NewEngine", func() {
			eng, err = livedb.NewEngine(initial, livedb.Config{Seed: cellSeed, Kernel: k, Obs: h})
		})
		if err == nil {
			tr.span("livedb.NewWorkload", func() { wl, err = livedb.NewWorkload(eng, initial, wcfg) })
		}
		if err != nil {
			return outcome{fail: err.Error()}
		}
		tr.span("Start", func() {
			eng.Start()
			wl.Start()
		})
		tr.run(k)
		// X11's post-run probe sweep at the final index is part of the
		// experiment's timeline, so every rep repeats it.
		tr.span("Engine.Lookup sweep", func() {
			if eng.State() == livedb.StateServing {
				for i := 0; i < len(initial); i += 37 {
					eng.Lookup(initial[i])
				}
			}
		})
		st, ws := eng.Stats(), wl.Stats()
		o := outcome{
			digest: digest(k.Fingerprint(), eng.Ledger().Fingerprint(), uint64(k.Processed()),
				uint64(st.Queries()), uint64(st.Retrains), uint64(st.Swaps), uint64(st.Rollbacks)),
			kernelFP: k.Fingerprint(), ledgerFP: eng.Ledger().Fingerprint(),
			fail: firstFailed(
				invariant{ws.Mismatches == 0, "live-index: oracle mismatches"},
				invariant{st.ServedTotal() == st.Queries(), "live-index: a query went unserved"},
			),
			ops:    k.Processed(),
			work:   map[string]float64{"events_per_s": float64(k.Processed()), "queries_per_s": float64(st.Queries())},
			layer:  map[string]float64{},
			handle: h,
		}
		livedbLayer(o.layer, st)
		o.probe = func(tr *tracer) map[string]float64 { return indexProbes(tr, initial, eng) }
		return o
	}, nil
}

// elasticChurn is X12's membership schedule at scale n: n/8 workers leave
// at round 3 and rejoin at round 12, and worker 1 first joins at round 6.
func elasticChurn(n int) []distributed.ChurnEvent {
	var evs []distributed.ChurnEvent
	for i := 0; i < n/8; i++ {
		evs = append(evs,
			distributed.ChurnEvent{Round: 3, Worker: 2 + i},
			distributed.ChurnEvent{Round: 12, Worker: 2 + i, Join: true})
	}
	return append(evs, distributed.ChurnEvent{Round: 6, Worker: 1, Join: true})
}

func setupElastic(seed int64, full bool) (repFunc, error) {
	n := 64
	if full {
		n = 256
	}
	ds := data.GaussianMixture(rand.New(rand.NewSource(seed+200+int64(n))), 16*n, 5, 3, 3.2)
	y := nn.OneHot(ds.Labels, 3)
	cfg := distributed.Config{
		Workers: n, Arch: nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 3}, Epochs: 8, BatchSize: 8, LR: 0.1,
		AveragePeriod: 1, Topology: distributed.TopoRing, Device: device.ClusterNode, SnapshotPeriod: 2,
		Fault: fault.LinkRate(seed+137, 0.12),
		Churn: elasticChurn(n),
	}
	return func(tr *tracer) outcome {
		k, h := sim.New(), obs.NewHandle()
		c := cfg
		c.Kernel, c.Obs = k, h
		var (
			job   *distributed.Job
			stats distributed.Stats
			err   error
		)
		tr.span("distributed.NewJob", func() { job, err = distributed.NewJob(seed+201, ds.X, y, c) })
		if err != nil {
			return outcome{fail: err.Error()}
		}
		tr.span("Job.Start", job.Start)
		tr.run(k)
		tr.span("Job.Result", func() { _, stats, err = job.Result() })
		if err != nil {
			return outcome{fail: err.Error()}
		}
		loss := math.NaN()
		if len(stats.EpochLoss) > 0 {
			loss = stats.EpochLoss[len(stats.EpochLoss)-1]
		}
		leaves := n / 8
		return outcome{
			digest: digest(k.Fingerprint(), uint64(k.Processed()), uint64(stats.BytesSent), uint64(stats.Steps),
				uint64(stats.CommRounds), uint64(stats.Retransmissions), uint64(stats.TopoHeals), math.Float64bits(loss)),
			kernelFP: k.Fingerprint(),
			fail: firstFailed(
				invariant{!math.IsNaN(loss) && !math.IsInf(loss, 0), "elastic-train: final loss is not finite"},
				invariant{stats.Leaves == leaves && stats.Joins == leaves+1 && stats.CatchUps == stats.Joins &&
					stats.MembershipEpochs >= 4, "elastic-train: churn ledger is not exact"},
			),
			ops:  k.Processed(),
			work: map[string]float64{"events_per_s": float64(k.Processed()), "rounds_per_s": float64(stats.Steps)},
			layer: map[string]float64{
				"distributed.rounds":          float64(stats.Steps),
				"distributed.comm_rounds":     float64(stats.CommRounds),
				"distributed.retransmissions": float64(stats.Retransmissions),
				"distributed.topo_heals":      float64(stats.TopoHeals),
			},
			handle: h,
		}
	}, nil
}

// eps32 is float32 machine epsilon: the f32 tier's error bound per term.
const eps32 = 1.1920929e-07

func setupGEMM(seed int64, full bool) (repFunc, error) {
	n := 256
	if full {
		n = 1024
	}
	rng := rand.New(rand.NewSource(seed + 300 + int64(n)))
	a := tensor.RandNormal(rng, 0, 1, n, n)
	b := tensor.RandNormal(rng, 0, 1, n, n)
	a32, b32 := tensor.ToFloat32(a), tensor.ToFloat32(b)
	ref := tensor.MatMulRef(a, b)
	// The tensor suite's f32 bound: each output element may be off by
	// (k+2)·eps32 times the sum of its terms' magnitudes.
	bound := tensor.MatMul(tensor.Apply(a, math.Abs), tensor.Apply(b, math.Abs))
	for i := range bound.Data {
		bound.Data[i] = (float64(n)+2)*eps32*bound.Data[i] + 1e-30
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	return func(tr *tracer) outcome {
		var c *tensor.Tensor
		var c32 *tensor.Tensor32
		s64 := tr.timed("tensor.MatMul", func() { c = tensor.MatMul(a, b) })
		s32 := tr.timed("tensor.MatMul32", func() { c32 = tensor.MatMul32(a32, b32) })
		within := true
		for i, v := range c32.Data {
			if math.Abs(float64(v)-ref.Data[i]) > bound.Data[i] {
				within = false
				break
			}
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range c.Data {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		for _, v := range c32.Data {
			bits := math.Float32bits(v)
			h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
		}
		return outcome{
			digest: h.Sum64(),
			fail: firstFailed(
				invariant{tensor.Equal(c, ref, 0), "gemm: MatMul is not bit-exact against MatMulRef"},
				invariant{within, "gemm: MatMul32 exceeds the f32 error bound"},
			),
			ops:   2,
			work:  map[string]float64{"gflops_f64": flops / 1e9, "gflops_f32": flops / 1e9},
			secs:  map[string]float64{"gflops_f64": s64, "gflops_f32": s32},
			layer: map[string]float64{},
			probe: func(tr *tracer) map[string]float64 { return gemmProbes(tr, a, b, ref, flops) },
		}
	}, nil
}

// gemmProbes times the other GEMM tiers on the workload's matrices.
func gemmProbes(tr *tracer, a, b, ref *tensor.Tensor, flops float64) map[string]float64 {
	var r, t *tensor.Tensor
	m := map[string]float64{}
	m["tensor.ref_gflops"] = flops / 1e9 / tr.timed("tensor.MatMulRef", func() { r = tensor.MatMulRef(a, b) })
	m["tensor.tiled_gflops"] = flops / 1e9 / tr.timed("tensor.MatMulTiled", func() { t = tensor.MatMulTiled(a, b) })
	// Four (n/2)^3 slices keep the work comparable while walking rank-3
	// storage.
	n, bt := a.Dim(0), 4
	half := n / 2
	ab, bb := tensor.New(bt, half, half), tensor.New(bt, half, half)
	for i := range ab.Data {
		ab.Data[i] = a.Data[i%len(a.Data)]
		bb.Data[i] = b.Data[i%len(b.Data)]
	}
	batFlops := 2 * float64(bt) * float64(half*half) * float64(half)
	m["tensor.batmul_gflops"] = batFlops / 1e9 / tr.timed("tensor.BatMul", func() { tensor.BatMul(ab, bb) })
	if tensor.Equal(r, ref, 0) && tensor.Equal(t, ref, 0) {
		m["tensor.bitexact"] = 1
	}
	return m
}

// indexProbes times one learned-Bloom build with the live index's default
// classifier size (Hidden 8, Epochs 12), one 64-leaf RMI build on the
// workload's key set, and a lookup sweep on the engine after the run.
func indexProbes(tr *tracer, keys []uint64, eng *livedb.Engine) map[string]float64 {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rng := rand.New(rand.NewSource(1))
	negs := data.NegativeKeys(rng, sorted, len(sorted)/2+1)
	m := map[string]float64{}
	m["learned.bloom_build_ms"] = 1e3 * tr.timed("learned.BuildLearnedBloom", func() {
		_, _ = learned.BuildLearnedBloom(rng, sorted, negs, learned.LearnedBloomConfig{
			Hidden: 8, Epochs: 12, LR: 0.01, TargetFPR: 0.025, BackupFPR: 0.025})
	})
	m["learned.rmi_build_ms"] = 1e3 * tr.timed("learned.BuildRMI", func() { _, _ = learned.BuildRMI(sorted, 64) })
	const sweeps = 20
	s := tr.timed("Engine.Lookup probe", func() {
		for r := 0; r < sweeps; r++ {
			for _, key := range sorted {
				eng.Lookup(key)
			}
		}
	})
	m["livedb.lookup_ns"] = 1e9 * s / float64(sweeps*len(sorted))
	return m
}
