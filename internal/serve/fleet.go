package serve

import (
	"fmt"
	"math"

	"dlsys/internal/fault"
	"dlsys/internal/fp"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/sim"
	"dlsys/internal/tensor"
)

// Fleet is the planet-scale serving simulator: a discrete-event actor
// system on the internal/sim kernel that pushes millions of requests
// through a multi-tenant queue, batch-serving replicas, and an overload
// control plane — retry budgets, adaptive admission, weighted-fair tenant
// isolation, a deterministic autoscaler, and a hot-key result cache.
//
// Where the original Server walks each request through an analytic
// attempt loop (exact, but O(records) in memory and built for thousands
// of requests), the Fleet is built for scale: roughly two kernel events
// per request (one arrival, one amortized share of a batched completion),
// no per-request record storage — the ledger is an incremental FNV-1a
// fingerprint plus aggregate tallies and a fixed-width goodput timeline —
// and all request state travels through value-typed queue entries. Sweeps
// over >=1M requests run in wall seconds (the CI guardrail holds the
// event loop above 100k simulated requests per wall-second).
//
// The failure mode it exists to reproduce is *metastable* overload: a
// flash crowd fills the queue past the deadline horizon, every admitted
// request times out while still consuming full service capacity, and the
// clients' retries multiply the offered load enough to keep the queue
// pinned there after the crowd has passed — goodput stays collapsed
// indefinitely at an offered load the fleet handled fine before the
// trigger. Each control-plane piece attacks one link of that loop; X14
// measures the collapse with them off and the recovery with them on.

// FleetConfig declares one fleet run. All durations are simulated
// seconds. Zero values take defaults; the zero ServiceS is 1ms.
type FleetConfig struct {
	Seed   int64
	Faults fault.Config // scheduled windows: flash crowd, retry storm, brownout
	Kernel *sim.Kernel  // optional shared kernel (X10); nil = private
	Obs    *obs.Handle  // optional; the fleet builds a private handle when nil
	// because the autoscaler is driven by the gauges

	Tenants int     // client classes sharing the fleet (default 8)
	ZipfS   float64 // Zipf exponent of tenant traffic shares (default 1.1)

	Requests    int     // total first-attempt requests across tenants
	ArrivalRate float64 // aggregate mean arrivals per simulated second

	Replicas   int     // initial replica count (default 8)
	ServiceS   float64 // one fresh request's service time (default 1ms)
	BatchMax   int     // max requests coalesced per replica dispatch (default 4)
	BatchItemS float64 // marginal service time per extra batched item (default 0.2*ServiceS)

	DeadlineS   float64 // per-attempt deadline (default 20*ServiceS)
	MaxAttempts int     // client attempts incl. the first (default 3, max 16)
	BackoffS    float64 // base retry backoff, doubling per attempt (default DeadlineS/2)

	Keys    int     // hot-key space size (default 4096)
	KeySkew float64 // key popularity skew; higher = hotter head (default 3)

	Budget    RetryBudgetConfig
	Admission AdmissionConfig
	Autoscale AutoscaleConfig
	Cache     CacheConfig

	// CacheModels + EvalX, when set, give cached results real identities:
	// the fleet scores the models over EvalX through the batched BatMul
	// prediction path (batchPredict) and each key's cached value is the
	// prediction a replica hosting that key's model would compute.
	CacheModels []*nn.Network
	EvalX       *tensor.Tensor

	BucketS float64 // goodput timeline bucket width (default 10*DeadlineS)
}

func (c *FleetConfig) defaults() {
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if c.Replicas <= 0 {
		c.Replicas = 8
	}
	if c.ServiceS <= 0 {
		c.ServiceS = 1e-3
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 4
	}
	if c.BatchItemS <= 0 {
		c.BatchItemS = 0.2 * c.ServiceS
	}
	if c.DeadlineS <= 0 {
		c.DeadlineS = 20 * c.ServiceS
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffS <= 0 {
		c.BackoffS = c.DeadlineS / 2
	}
	if c.Keys <= 0 {
		c.Keys = 4096
	}
	if c.KeySkew <= 0 {
		c.KeySkew = 3
	}
	if c.BucketS <= 0 {
		c.BucketS = 10 * c.DeadlineS
	}
}

func (c FleetConfig) validate() error {
	if c.Requests <= 0 {
		return &ConfigError{Field: "Requests",
			Reason: fmt.Sprintf("must be positive, got %d", c.Requests)}
	}
	if c.ArrivalRate <= 0 {
		return &ConfigError{Field: "ArrivalRate",
			Reason: fmt.Sprintf("must be positive, got %g", c.ArrivalRate)}
	}
	if c.MaxAttempts > 16 {
		return &ConfigError{Field: "MaxAttempts",
			Reason: fmt.Sprintf("%d exceeds 16", c.MaxAttempts)}
	}
	if len(c.CacheModels) > 0 && c.EvalX == nil {
		return &ConfigError{Field: "CacheModels",
			Reason: "need EvalX to score cached results"}
	}
	if err := c.Budget.validate(); err != nil {
		return err
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	if err := c.Autoscale.validate(c.Replicas); err != nil {
		return err
	}
	return c.Faults.Validate()
}

// fleetReq is one attempt's worth of request state; it travels by value
// through the queue, replica batches and retry records, so the fleet
// stores no per-request ledger rows.
type fleetReq struct {
	id       int
	tenant   int
	key      int
	attempt  int
	first    float64 // original arrival (latency base)
	start    float64 // this attempt's arrival (deadline base)
	enqueued float64
}

// The fleet's event handlers are built once and reused, so the event loop
// allocates nothing per request: each tenant's arrival chain, each
// replica's completion and each retry record owns its handler.

// arrivalChain is one tenant's stream of first attempts. A tenant has at
// most one arrival pending, so the chain keeps that arrival's index.
type arrivalChain struct {
	seq  int     // index of the pending arrival within the tenant's quota
	mean float64 // mean inter-arrival gap
	fire func(stamp float64)
}

// replica is one server's batch, in a BatchMax buffer it owns, and the
// handler that completes it. A replica serves one batch at a time.
type replica struct {
	batch []fleetReq
	done  func(stamp float64)
}

// retryRecord is a client retry waiting out its backoff. Records live in
// Fleet.retryRecs and return to the free list when they fire.
type retryRecord struct {
	rq   fleetReq
	fire func(stamp float64)
}

// TenantStats is one tenant's aggregate outcome tallies.
type TenantStats struct {
	Arrived, Served, Shed, Failed int
	Availability                  float64 // Served / Arrived
}

// GoodputBucket is one fixed-width slot of the goodput timeline.
type GoodputBucket struct {
	StartS  float64
	Offered int // first-attempt arrivals in the bucket
	Served  int // requests whose serving completion landed in the bucket
}

// FleetResult summarises a fleet run without per-request records.
type FleetResult struct {
	Requests             int
	Served, Shed, Failed int
	Availability         float64
	P50S, P99S           float64 // latency of served requests (bucket upper bounds)

	Retries, RetriesDenied int
	CacheHits, CacheMisses int

	ScaleUpReplicas, ScaleDownReplicas int
	PeakReplicas, FinalReplicas        int

	Tenants []TenantStats

	BucketS  float64
	Buckets  []GoodputBucket
	VirtualS float64 // last finalization instant

	LedgerFP uint64
}

// rateOver averages a per-bucket count over the buckets fully inside
// [a, b), returning events per simulated second.
func (r FleetResult) rateOver(a, b float64, count func(GoodputBucket) int) float64 {
	total, n := 0, 0
	for _, bk := range r.Buckets {
		if bk.StartS >= a && bk.StartS+r.BucketS <= b {
			total += count(bk)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / (float64(n) * r.BucketS)
}

// GoodputOver returns the mean served rate (req/s) over [a, b).
func (r FleetResult) GoodputOver(a, b float64) float64 {
	return r.rateOver(a, b, func(bk GoodputBucket) int { return bk.Served })
}

// OfferedOver returns the mean first-attempt arrival rate over [a, b).
func (r FleetResult) OfferedOver(a, b float64) float64 {
	return r.rateOver(a, b, func(bk GoodputBucket) int { return bk.Offered })
}

// RecoveredBy returns the start of the first bucket at or after t whose
// served rate reaches the target (req/s), or -1 if none does.
func (r FleetResult) RecoveredBy(t, target float64) float64 {
	for _, bk := range r.Buckets {
		if bk.StartS >= t && float64(bk.Served)/r.BucketS >= target {
			return bk.StartS
		}
	}
	return -1
}

// foldOutcome folds one final request outcome into the ledger hash, so the
// ledger costs O(1) memory at any scale. Fingerprints are only ever
// compared between in-process runs, never persisted.
func (f *Fleet) foldOutcome(rq fleetReq, oc Outcome, finish float64) {
	f.ledger.Word(uint64(rq.id))
	f.ledger.Word(uint64(rq.tenant))
	f.ledger.Word(uint64(rq.key))
	f.ledger.Word(uint64(rq.attempt) | uint64(oc)<<8)
	f.ledger.Float(rq.first)
	f.ledger.Float(finish)
}

// fleetLatBuckets is the resolution of the fixed latency histogram:
// linear buckets over [0, 4*DeadlineS] plus overflow.
const fleetLatBuckets = 256

// Fleet runs the event-driven serving simulation. Build with NewFleet,
// drive with Run (standalone) or Start+Result (shared kernel).
type Fleet struct {
	cfg FleetConfig
	inj *fault.Injector
	k   *sim.Kernel

	// Three actors so the kernel log attributes every event: fleet-wl
	// (workload: arrivals and client retries), fleet-srv (replica
	// completions), fleet-scale (autoscaler decisions and activations).
	wl, srv *sim.Actor

	adm    *admitter
	budget *retryBudget
	cache  *resultCache
	scaler *autoscaler
	obs    *fleetObs

	weights  []float64 // tenant traffic shares, sum 1
	quota    []int     // per-tenant first-attempt request counts
	keyPred  []int     // cached result identity per key
	arrivals []arrivalChain

	queue []fleetReq
	qHead int

	replicas []replica // by id; retired replicas keep their slot
	idle     []int
	active   int // live replicas (busy + idle)
	desired  int // autoscaler target (includes pending activations)
	inFlight int

	retryRecs []retryRecord
	freeRecs  []int // indices of idle retry records

	nextID    int
	finalized int
	lastS     float64

	tenants                []TenantStats
	retries, retriesDenied int
	cacheHits, cacheMisses int
	scaleUpN, scaleDownN   int
	peakReplicas           int

	latHist  [fleetLatBuckets + 1]int
	latWidth float64
	buckets  []GoodputBucket
	ledger   fp.Hash

	perItemS float64 // amortized service per request at full batch
	skewN    int     // KeySkew when it is an integer in [1, 16]; 0 means math.Pow

	started, finished bool
	res               FleetResult
}

// NewFleet validates the config and prepares a fleet. Like Server, a
// fleet is single-use: build a fresh one per run.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.finite(); err != nil {
		return nil, err
	}
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := cfg.Kernel
	if k == nil {
		k = sim.New()
	}
	h := cfg.Obs
	if h == nil {
		h = obs.NewHandle()
	}
	f := &Fleet{
		cfg:          cfg,
		inj:          fault.NewInjector(cfg.Faults),
		k:            k,
		wl:           k.Actor("fleet-wl"),
		srv:          k.Actor("fleet-srv"),
		obs:          newFleetObs(h, cfg.Tenants),
		active:       cfg.Replicas,
		desired:      cfg.Replicas,
		peakReplicas: cfg.Replicas,
		tenants:      make([]TenantStats, cfg.Tenants),
		ledger:       fp.New(),
		latWidth:     4 * cfg.DeadlineS / fleetLatBuckets,
		perItemS:     (cfg.ServiceS + float64(cfg.BatchMax-1)*cfg.BatchItemS) / float64(cfg.BatchMax),
	}
	if s := cfg.KeySkew; s >= 1 && s <= 16 && s == math.Trunc(s) {
		f.skewN = int(s)
	}
	f.inj.SetClock(k)
	for i := 0; i < cfg.Replicas; i++ {
		f.newReplica()
	}
	for i := cfg.Replicas - 1; i >= 0; i-- {
		f.idle = append(f.idle, i) // LIFO pop serves replica 0 first
	}

	// Zipf tenant entitlements: tenant i carries a share proportional to
	// 1/(i+1)^s. Quotas split Requests by entitlement, remainder to the
	// head tenants so the total is exact.
	f.weights = make([]float64, cfg.Tenants)
	z := 0.0
	for i := range f.weights {
		f.weights[i] = math.Pow(float64(i+1), -cfg.ZipfS)
		z += f.weights[i]
	}
	for i := range f.weights {
		f.weights[i] /= z
	}
	f.quota = make([]int, cfg.Tenants)
	assigned := 0
	for i, w := range f.weights {
		f.quota[i] = int(w * float64(cfg.Requests))
		assigned += f.quota[i]
	}
	for i := 0; assigned < cfg.Requests; i = (i + 1) % cfg.Tenants {
		f.quota[i]++
		assigned++
	}
	for i := range f.tenants {
		f.tenants[i].Arrived = f.quota[i]
	}
	f.arrivals = make([]arrivalChain, cfg.Tenants)
	for i := range f.arrivals {
		tenant := i
		f.arrivals[i] = arrivalChain{
			mean: 1 / (cfg.ArrivalRate * f.weights[i]),
			fire: func(stamp float64) { f.arrive(tenant, stamp) },
		}
	}

	drain := float64(cfg.Replicas) / f.perItemS
	f.adm = newAdmitter(cfg.Admission, cfg.DeadlineS, cfg.ServiceS, drain, f.weights)
	f.budget = newRetryBudget(cfg.Budget, cfg.Tenants)
	if !cfg.Cache.Disabled {
		f.cache = newResultCache(cfg.Cache, cfg.DeadlineS, cfg.Keys)
	}
	f.keyPred = keyPredictions(cfg.CacheModels, cfg.EvalX, cfg.Keys)
	f.scaler = newAutoscaler(cfg.Autoscale, f, k.Actor("fleet-scale"), f.obs.queueDelayEst)
	return f, nil
}

// keyPredictions scores the cache models over the eval matrix — batched
// through BatMul when they share a Dense+ReLU architecture — and maps
// every key to the prediction its serving model would produce. Without
// models the identity mapping stands in.
func keyPredictions(models []*nn.Network, evalX *tensor.Tensor, keys int) []int {
	out := make([]int, keys)
	if len(models) == 0 || evalX == nil {
		for k := range out {
			out[k] = k
		}
		return out
	}
	preds := make([][]int, len(models))
	batchable := len(models) >= 2
	for _, m := range models {
		if denseArch(m) == "" || (batchable && denseArch(m) != denseArch(models[0])) {
			batchable = false
		}
	}
	if batchable {
		preds = batchPredict(models, evalX)
	} else {
		for i, m := range models {
			preds[i] = m.Predict(evalX)
		}
	}
	rows := evalX.Dim(0)
	for k := range out {
		out[k] = preds[k%len(models)][k%rows]
	}
	return out
}

// newReplica provisions the next replica id with its batch buffer and
// completion handler.
func (f *Fleet) newReplica() {
	r := len(f.replicas)
	f.replicas = append(f.replicas, replica{
		batch: make([]fleetReq, 0, f.cfg.BatchMax),
		done:  func(stamp float64) { f.complete(r, stamp) },
	})
}

// Kernel returns the simulation kernel the fleet schedules on.
func (f *Fleet) Kernel() *sim.Kernel { return f.k }

// Run drives the standalone loop: schedule the workload, drain the
// kernel, summarise.
func (f *Fleet) Run() FleetResult {
	f.Start()
	f.k.Run()
	return f.Result()
}

// Start schedules the per-tenant arrival chains and the autoscaler on the
// kernel. With a shared Config.Kernel the fleet's events interleave with
// every other component on the same virtual timeline.
func (f *Fleet) Start() {
	if f.started {
		return
	}
	f.started = true
	f.obs.replicas.Set(float64(f.active))
	t0 := f.k.Now()
	for t := 0; t < f.cfg.Tenants; t++ {
		if f.quota[t] > 0 {
			f.scheduleArrival(t, t0)
		}
	}
	f.scaler.start(t0)
}

// scheduleArrival books the tenant's pending arrival at a gap drawn from
// the tenant's own arrival stream; flash-crowd windows compress exactly
// the gaps falling inside them (per tenant, when the window lists Workers).
func (f *Fleet) scheduleArrival(tenant int, from float64) {
	ch := &f.arrivals[tenant]
	f.wl.At(from+f.inj.ArrivalGapFor(tenant, ch.seq, ch.mean, from), ch.fire)
}

// arrive lands the tenant's pending arrival: it books the next one first,
// then walks the new request through the fleet.
func (f *Fleet) arrive(tenant int, stamp float64) {
	ch := &f.arrivals[tenant]
	seq := ch.seq
	if seq+1 < f.quota[tenant] {
		ch.seq++
		f.scheduleArrival(tenant, stamp)
	}
	id := f.nextID
	f.nextID++
	f.obs.arrived.Inc()
	f.obs.tenantArrived[tenant].Inc()
	f.bucketAt(stamp).Offered++
	f.handleAttempt(fleetReq{
		id: id, tenant: tenant, key: f.hotKey(tenant, seq),
		first: stamp, start: stamp,
	}, stamp)
}

// mix64 is the splitmix64 finalizer, the same mixing primitive the fault
// package builds its hash streams from.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hotKey maps (tenant, seq) to a skewed key: a uniform hash draw pushed
// through u^skew concentrates mass on the low keys, the stand-in for the
// Zipf head of real serving traffic.
func (f *Fleet) hotKey(tenant, seq int) int {
	k := int(float64(f.cfg.Keys) * f.skew(keyDraw(f.cfg.Seed, tenant, seq)))
	if k >= f.cfg.Keys {
		k = f.cfg.Keys - 1
	}
	return k
}

// keyDraw is hotKey's uniform draw for (tenant, seq): 0 or a multiple of
// 2⁻⁵³ in [2⁻⁵³, 1).
func keyDraw(seed int64, tenant, seq int) float64 {
	x := mix64(uint64(seed)<<1 ^ uint64(tenant)<<40 ^ uint64(seq))
	return float64(x>>11) / (1 << 53)
}

// skew returns u^KeySkew, by powInt when KeySkew is a small integer.
func (f *Fleet) skew(u float64) float64 {
	if f.skewN > 0 {
		return powInt(u, f.skewN)
	}
	return math.Pow(u, f.cfg.KeySkew)
}

// powInt returns u^n by square-and-multiply over n's bits from the lowest:
// the products math.Pow forms for an integer exponent, in the same order.
// Pow multiplies normalised mantissas. For keyDraw's values and n in
// [1, 16] no product here leaves the normal range, so each rounds exactly
// as Pow's does and the result equals math.Pow(u, float64(n)) bit for bit.
func powInt(u float64, n int) float64 {
	r := 1.0
	for {
		if n&1 == 1 {
			r *= u
		}
		n >>= 1
		if n == 0 {
			return r
		}
		u *= u
	}
}

// delayEst is the admission-time queue delay estimate: the backlog over
// the fleet's current drain rate.
func (f *Fleet) delayEst() float64 {
	return float64(f.queueLen()) * f.perItemS / float64(f.active)
}

func (f *Fleet) queueLen() int { return len(f.queue) - f.qHead }

// handleAttempt walks one attempt (fresh or retry) through the cache and
// the admission gate into the queue.
func (f *Fleet) handleAttempt(rq fleetReq, now float64) {
	if f.cache != nil {
		if _, ok := f.cache.get(rq.key, now); ok {
			f.cacheHits++
			f.obs.cacheHits.Inc()
			f.finishServed(rq, now)
			return
		}
		f.cacheMisses++
		f.obs.cacheMisses.Inc()
	}
	est := f.delayEst()
	f.obs.queueDelayEst.Set(est)
	if !f.adm.admit(rq.tenant, now, est, f.queueLen()) {
		f.failAttempt(rq, now, true)
		return
	}
	f.obs.admitted.Inc()
	rq.enqueued = now
	f.queue = append(f.queue, rq)
	f.adm.enqueued(rq.tenant)
	f.tryDispatch(now)
	f.obs.queueLen.Set(float64(f.queueLen()))
}

// tryDispatch pairs idle replicas with queued work: each replica takes up
// to BatchMax requests FIFO and schedules one completion event for the
// whole batch — the amortization that keeps the loop near two events per
// request. Brownout windows stretch the batch's service time.
func (f *Fleet) tryDispatch(now float64) {
	for len(f.idle) > 0 && f.queueLen() > 0 {
		r := f.idle[len(f.idle)-1]
		f.idle = f.idle[:len(f.idle)-1]
		n := f.cfg.BatchMax
		if ql := f.queueLen(); n > ql {
			n = ql
		}
		rep := &f.replicas[r]
		rep.batch = append(rep.batch[:0], f.queue[f.qHead:f.qHead+n]...)
		f.qHead += n
		if f.qHead > 4096 && 2*f.qHead >= len(f.queue) {
			f.queue = append(f.queue[:0], f.queue[f.qHead:]...)
			f.qHead = 0
		}
		for _, rq := range rep.batch {
			f.adm.dequeued(rq.tenant, now-rq.enqueued, now)
		}
		service := (f.cfg.ServiceS + float64(n-1)*f.cfg.BatchItemS) *
			f.inj.FactorAt(fault.KindBrownout, r, now)
		f.inFlight += n
		f.srv.At(now+service, rep.done)
	}
}

// complete lands one replica batch: requests inside their attempt
// deadline are served, the rest are failures the client may retry —
// crucially, the replica spent full service time on them either way,
// which is the wasted work that sustains metastable collapse.
func (f *Fleet) complete(r int, stamp float64) {
	batch := f.replicas[r].batch
	f.inFlight -= len(batch)
	for _, rq := range batch {
		if stamp <= rq.start+f.cfg.DeadlineS {
			f.serveFromReplica(rq, stamp)
		} else {
			f.failAttempt(rq, stamp, false)
		}
	}
	if f.active > f.desired {
		// Autoscaler wants fewer replicas: retire instead of going idle.
		f.active--
		f.scaleDownN++
		f.obs.scaleDowns.Inc()
		f.obs.replicas.Set(float64(f.active))
		return
	}
	f.idle = append(f.idle, r)
	f.tryDispatch(stamp)
}

func (f *Fleet) serveFromReplica(rq fleetReq, stamp float64) {
	if f.cache != nil {
		f.cache.put(rq.key, f.keyPred[rq.key], stamp)
	}
	f.finishServed(rq, stamp)
}

// finishServed records a success (replica- or cache-served).
func (f *Fleet) finishServed(rq fleetReq, stamp float64) {
	f.budget.earn(rq.tenant)
	lat := stamp - rq.first
	li := int(lat / f.latWidth)
	if li > fleetLatBuckets {
		li = fleetLatBuckets
	}
	f.latHist[li]++
	f.tenants[rq.tenant].Served++
	f.obs.served.Inc()
	f.obs.tenantServed[rq.tenant].Inc()
	f.bucketAt(stamp).Served++
	f.foldOutcome(rq, Served, stamp)
	f.finalize(stamp)
}

// failAttempt handles a failed attempt (shed at admission or past its
// deadline at completion): retry if attempts and the tenant's retry
// budget allow, otherwise record the terminal outcome.
func (f *Fleet) failAttempt(rq fleetReq, now float64, shed bool) {
	if rq.attempt+1 < f.maxAttempts(rq.tenant, now) {
		if f.budget.allow(rq.tenant) {
			f.retries++
			f.obs.retries.Inc()
			next := rq
			next.attempt++
			f.scheduleRetry(next, now+f.backoff(rq.tenant, rq.attempt, now))
			return
		}
		f.retriesDenied++
		f.obs.retriesDenied.Inc()
	}
	if shed {
		f.tenants[rq.tenant].Shed++
		f.obs.shed.Inc()
		f.obs.tenantShed[rq.tenant].Inc()
		f.foldOutcome(rq, Shed, now)
	} else {
		f.tenants[rq.tenant].Failed++
		f.obs.failed.Inc()
		f.obs.tenantFailed[rq.tenant].Inc()
		f.foldOutcome(rq, Failed, now)
	}
	f.finalize(now)
}

// scheduleRetry books rq's next attempt at t in a free retry record, or
// in a new one whose handler is built with it.
func (f *Fleet) scheduleRetry(rq fleetReq, t float64) {
	var i int
	if n := len(f.freeRecs); n > 0 {
		i = f.freeRecs[n-1]
		f.freeRecs = f.freeRecs[:n-1]
	} else {
		i = len(f.retryRecs)
		f.retryRecs = append(f.retryRecs, retryRecord{fire: func(stamp float64) { f.retry(i, stamp) }})
	}
	f.retryRecs[i].rq = rq
	f.wl.At(t, f.retryRecs[i].fire)
}

// retry re-sends record i's request and frees the record.
func (f *Fleet) retry(i int, stamp float64) {
	rq := f.retryRecs[i].rq
	rq.start = stamp
	f.freeRecs = append(f.freeRecs, i)
	f.handleAttempt(rq, stamp)
}

// maxAttempts is the client's attempt limit at time t: a retry-storm
// window multiplies the tenant's configured attempts (impatient clients
// retry more).
func (f *Fleet) maxAttempts(tenant int, t float64) int {
	if s := f.inj.FactorAt(fault.KindRetryStorm, tenant, t); s > 1 {
		return int(float64(f.cfg.MaxAttempts)*s + 0.5)
	}
	return f.cfg.MaxAttempts
}

// backoff is the client's wait before retry attempt+1: exponential from
// BackoffS, compressed by an active retry-storm window.
func (f *Fleet) backoff(tenant, attempt int, t float64) float64 {
	b := f.cfg.BackoffS * float64(int(1)<<attempt)
	if s := f.inj.FactorAt(fault.KindRetryStorm, tenant, t); s > 1 {
		b /= s
	}
	return b
}

func (f *Fleet) finalize(stamp float64) {
	f.finalized++
	if stamp > f.lastS {
		f.lastS = stamp
	}
}

// bucketAt returns the goodput-timeline bucket covering t, growing the
// timeline as the day advances.
func (f *Fleet) bucketAt(t float64) *GoodputBucket {
	i := int(t / f.cfg.BucketS)
	for len(f.buckets) <= i {
		f.buckets = append(f.buckets, GoodputBucket{StartS: float64(len(f.buckets)) * f.cfg.BucketS})
	}
	return &f.buckets[i]
}

// addReplicas brings n provisioned replicas online (autoscaler
// activation, after the provisioning lag).
func (f *Fleet) addReplicas(n int, stamp float64) {
	for j := 0; j < n; j++ {
		f.idle = append(f.idle, len(f.replicas))
		f.newReplica()
	}
	f.active += n
	f.scaleUpN += n
	f.obs.scaleUps.Add(int64(n))
	if f.active > f.peakReplicas {
		f.peakReplicas = f.active
	}
	f.obs.replicas.Set(float64(f.active))
	f.tryDispatch(stamp)
}

// removeReplicas lowers the target by n: idle replicas retire now, busy
// ones as their current batch completes.
func (f *Fleet) removeReplicas(n int, _ float64) {
	f.desired -= n
	for len(f.idle) > 0 && f.active > f.desired {
		f.idle = f.idle[:len(f.idle)-1]
		f.active--
		f.scaleDownN++
		f.obs.scaleDowns.Inc()
	}
	f.obs.replicas.Set(float64(f.active))
}

// Result finalises and returns the run summary; call after the kernel has
// drained. Calling again returns the same result.
func (f *Fleet) Result() FleetResult {
	if f.finished {
		return f.res
	}
	f.finished = true
	r := FleetResult{
		Requests:          f.cfg.Requests,
		Retries:           f.retries,
		RetriesDenied:     f.retriesDenied,
		CacheHits:         f.cacheHits,
		CacheMisses:       f.cacheMisses,
		ScaleUpReplicas:   f.scaleUpN,
		ScaleDownReplicas: f.scaleDownN,
		PeakReplicas:      f.peakReplicas,
		FinalReplicas:     f.active,
		BucketS:           f.cfg.BucketS,
		Buckets:           f.buckets,
		VirtualS:          f.lastS,
		LedgerFP:          uint64(f.ledger),
	}
	for i := range f.tenants {
		ts := f.tenants[i]
		if ts.Arrived > 0 {
			ts.Availability = float64(ts.Served) / float64(ts.Arrived)
		}
		r.Served += ts.Served
		r.Shed += ts.Shed
		r.Failed += ts.Failed
		r.Tenants = append(r.Tenants, ts)
	}
	r.Availability = float64(r.Served) / float64(r.Requests)
	r.P50S = f.latQuantile(0.5)
	r.P99S = f.latQuantile(0.99)
	f.res = r
	return r
}

// latQuantile reads the q-quantile off the fixed latency histogram,
// reporting the bucket's upper edge.
func (f *Fleet) latQuantile(q float64) float64 {
	total := 0
	for _, c := range f.latHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	seen := 0
	for i, c := range f.latHist {
		seen += c
		if seen > rank {
			return float64(i+1) * f.latWidth
		}
	}
	return float64(fleetLatBuckets+1) * f.latWidth
}
