package serve

import (
	"fmt"
	"sort"

	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/fp"
	"dlsys/internal/invalid"
	"dlsys/internal/obs"
	"dlsys/internal/sim"
	"dlsys/internal/tensor"
)

// Replica is one serving worker: a model variant hosted on a device cost
// model. Its per-request service time is the device's ServeTime for the
// variant's streamed bytes and FLOPs.
type Replica struct {
	Variant    Variant
	Device     device.Profile
	Efficiency float64 // fraction of peak compute achieved, (0, 1]
}

// ServiceS is the fault-free per-request service time of the replica.
func (r Replica) ServiceS() float64 {
	return r.Device.ServeTime(r.Variant.Bytes, r.Variant.FLOPs, r.Efficiency)
}

// Config declares one serving run. Durations are simulated seconds. The
// Server's time constants are multiples of the fleet's base service time
// (the fastest fault-free service among the best tier's replicas), so one
// knob, ArrivalRate, scales load.
type Config struct {
	Seed     int64
	Faults   fault.Config // replica-level fault injection (crash/straggle/drop/corrupt)
	Replicas []Replica

	ArrivalRate float64 // mean requests per simulated second (Poisson)
	Requests    int     // number of requests to simulate

	HedgeQuantile float64 // launch a hedge when an attempt exceeds this latency quantile; 0 disables

	// Fallback routes to degraded tiers when every better tier is
	// saturated or broken. When false only the best (lowest) tier
	// present in the fleet serves traffic.
	Fallback bool

	// Eval scores the accuracy of the actually-served response mix:
	// request i carries eval row i mod N, answered by whichever variant
	// served it. Optional; without it Correct/MixAccuracy stay zero.
	EvalX      *tensor.Tensor
	EvalLabels []int

	// Obs, when non-nil, receives live metrics (outcome counters mirroring
	// the Result tallies, per-tier latency histograms, breaker transition
	// counters) and one span per request stamped from the simulated clock.
	// Nil disables instrumentation at near-zero cost.
	Obs *obs.Handle

	// Kernel, when non-nil, is the shared simulation kernel request
	// arrivals are scheduled on, letting the serving fleet compose with
	// other kernel-driven components (distributed training, scheduled
	// fault windows) on one timeline. Nil creates a private kernel and
	// reproduces the historical standalone behaviour bit-for-bit.
	Kernel *sim.Kernel
}

// The Server's fixed policy. Times are in base service times.
const (
	serverDeadline  = 8    // per-request deadline from arrival
	serverBackoff   = 0.25 // initial retry backoff, doubling per retry
	serverRestart   = 25   // how long a crashed replica stays down
	serverQueueCap  = 4    // requests queued per replica
	hedgeMinSamples = 16   // latency samples needed before hedging

	// serverAttempts is the primary attempts per request. The fault hash
	// stream encodes (request, attempt) with primary attempts in slots
	// 0..3 and hedges in 4..7, so it must not exceed 4.
	serverAttempts = 3
)

// baseServiceS is the fastest fault-free service time among lowest-tier
// replicas — the natural time unit of the fleet.
func (c Config) baseServiceS() float64 {
	best := 0.0
	bestTier := Tier(-1)
	for _, r := range c.Replicas {
		s := r.ServiceS()
		if bestTier < 0 || r.Variant.Tier < bestTier || (r.Variant.Tier == bestTier && s < best) {
			best, bestTier = s, r.Variant.Tier
		}
	}
	return best
}

// validate rejects NaN and ±Inf in every float field, then checks the
// replica set and the load.
func (c Config) validate() error {
	fields := []invalid.Field{invalid.F("ArrivalRate", c.ArrivalRate), invalid.F("HedgeQuantile", c.HedgeQuantile)}
	for i, r := range c.Replicas {
		at := fmt.Sprintf("Replicas[%d].", i)
		d := r.Device
		fields = append(fields, invalid.F(at+"Efficiency", r.Efficiency),
			invalid.F(at+"Device.FLOPsPerSec", d.FLOPsPerSec), invalid.F(at+"Device.MemBandwidth", d.MemBandwidth),
			invalid.F(at+"Device.LinkBandwidth", d.LinkBandwidth), invalid.F(at+"Device.LinkLatencyS", d.LinkLatencyS),
			invalid.F(at+"Device.Watts", d.Watts), invalid.F(at+"Device.IdleWatts", d.IdleWatts))
	}
	if err := invalid.Finite("serve", fields...); err != nil {
		return err
	}
	if len(c.Replicas) == 0 {
		return invalid.New("serve", "Replicas", "must list at least one replica")
	}
	for i, r := range c.Replicas {
		if r.Efficiency <= 0 || r.Efficiency > 1 {
			return invalid.New("serve", fmt.Sprintf("Replicas[%d].Efficiency", i), "%g out of (0,1]", r.Efficiency)
		}
		if r.Variant.Bytes <= 0 || r.Variant.FLOPs <= 0 {
			return invalid.New("serve", fmt.Sprintf("Replicas[%d].Variant", i),
				"%q has non-positive cost (bytes=%d flops=%d)", r.Variant.Name, r.Variant.Bytes, r.Variant.FLOPs)
		}
		if r.Variant.Tier < TierFull || r.Variant.Tier >= numTiers {
			return invalid.New("serve", fmt.Sprintf("Replicas[%d].Variant.Tier", i), "unknown tier %d", r.Variant.Tier)
		}
	}
	if c.ArrivalRate <= 0 {
		return invalid.New("serve", "ArrivalRate", "must be positive, got %g", c.ArrivalRate)
	}
	if c.Requests <= 0 {
		return invalid.New("serve", "Requests", "must be positive, got %d", c.Requests)
	}
	if c.HedgeQuantile < 0 || c.HedgeQuantile >= 1 {
		return invalid.New("serve", "HedgeQuantile", "%g out of [0,1)", c.HedgeQuantile)
	}
	return c.Faults.Validate()
}

// Outcome classifies how a request ended.
type Outcome int

// Request outcomes.
const (
	// Served: a replica returned a correct-by-construction response
	// before the deadline.
	Served Outcome = iota
	// Shed: admission control rejected the request up front because no
	// admissible replica could meet its deadline budget.
	Shed
	// Failed: all attempts (and any hedge) failed or missed the deadline.
	Failed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Served:
		return "served"
	case Shed:
		return "shed"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// RequestRecord is one line of the request ledger.
type RequestRecord struct {
	ID       int
	ArrivalS float64
	FinishS  float64 // completion (served), rejection (shed), or last failure time
	LatencyS float64 // FinishS - ArrivalS for served requests, else 0
	Outcome  Outcome
	Tier     Tier // tier that served it (served only)
	Replica  int  // replica that served it, -1 otherwise
	Attempts int  // primary attempts dispatched
	Hedged   bool // a hedge was launched
	HedgeWon bool // the hedge beat (or outlived) the primary
	Correct  bool // served response matched the eval label
}

// Result summarises a run. Records is the full deterministic ledger.
type Result struct {
	Records []RequestRecord

	Served, Shed, Failed int
	Availability         float64 // served / total
	ShedRate             float64
	P50S, P99S           float64 // latency of served requests

	HedgesLaunched, HedgeWins      int
	BreakerOpened, BreakerReclosed int // transitions summed over replicas

	TierCounts  [4]int  // served requests per tier
	MixAccuracy float64 // accuracy of the actually-served response mix
}

// Fingerprint returns an FNV-1a hash over the full request ledger. Two
// runs of the same seeded scenario must produce identical fingerprints;
// composed experiments (X10) cross-check it against the metric, trace,
// and kernel fingerprints.
func (r Result) Fingerprint() uint64 {
	h := fp.New()
	for _, rec := range r.Records {
		fmt.Fprintf(&h, "%d|%.17g|%.17g|%d|%d|%d|%d|%v|%v|%v\n",
			rec.ID, rec.ArrivalS, rec.FinishS, rec.Outcome, rec.Tier,
			rec.Replica, rec.Attempts, rec.Hedged, rec.HedgeWon, rec.Correct)
	}
	return uint64(h)
}

// replicaState is the simulator's per-replica mutable state.
type replicaState struct {
	busyUntilS float64
	downUntilS float64
	done       []float64 // completion times of dispatched work, ascending
	br         *breaker
}

func (rs *replicaState) pending(now float64) int {
	// done is ascending; count entries still in the future.
	i := sort.SearchFloat64s(rs.done, now)
	return len(rs.done) - i
}

// attemptResult is the outcome of one dispatched attempt.
type attemptResult struct {
	ok       bool
	finishS  float64
	replica  int
	rejected bool // no admissible replica; nothing was dispatched
}

// Server runs the simulated serving loop.
type Server struct {
	cfg     Config
	inj     *fault.Injector
	k       *sim.Kernel
	actor   *sim.Actor
	states  []*replicaState
	byTier  [][]int // replica indices per tier, ascending id
	minTier Tier    // best tier present in the fleet

	deadlineS, backoffS, restartS float64 // the fixed policy, scaled by the base service time

	// latency ring of recent successful attempt durations, for the
	// hedging quantile estimate, and the scratch copy each hedge check
	// sorts.
	lat     []float64
	latHead int
	latN    int
	hedgeQ  []float64

	preds [numTiers][]int // per-tier predictions over the eval rows

	obs *serveObs

	// Run-in-progress accumulation, folded request by request as arrival
	// events execute and finalised by Result.
	res             Result
	correct, scored int
	started         bool
	finished        bool
}

// NewServer validates the config and prepares a server. The same server
// must not be reused across runs; build a fresh one per Run.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := cfg.Kernel
	if k == nil {
		k = sim.New()
	}
	base := cfg.baseServiceS()
	s := &Server{
		cfg:       cfg,
		inj:       fault.NewInjector(cfg.Faults),
		k:         k,
		actor:     k.Actor("serve"),
		byTier:    make([][]int, numTiers),
		deadlineS: serverDeadline * base,
		backoffS:  serverBackoff * base,
		restartS:  serverRestart * base,
		lat:       make([]float64, 64),
		hedgeQ:    make([]float64, 0, 64),
		obs:       newServeObs(cfg.Obs),
	}
	s.minTier = numTiers
	brCfg := breakerConfig{
		Window: breakerWindow, MinSamples: breakerMinSamples, FailureRate: breakerFailureRate,
		CooldownS: breakerCooldown * base, HalfOpenProbes: breakerProbes,
	}
	for i, r := range cfg.Replicas {
		br := newBreaker(brCfg)
		br.instrument(s.obs.breakerOpened, s.obs.breakerReclosed)
		s.states = append(s.states, &replicaState{br: br})
		s.byTier[r.Variant.Tier] = append(s.byTier[r.Variant.Tier], i)
		if r.Variant.Tier < s.minTier {
			s.minTier = r.Variant.Tier
		}
	}
	if cfg.EvalX != nil {
		var reps [numTiers]Predictor
		for t := TierFull; t < numTiers; t++ {
			for _, ri := range s.byTier[t] {
				reps[t] = cfg.Replicas[ri].Variant.Model
				break // one variant per tier is enough
			}
		}
		s.preds = tierPredictions(reps, cfg.EvalX)
	}
	return s, nil
}

// Run simulates the configured request stream and returns the ledger. It
// is the standalone wrapper over the kernel-driven API: schedule the
// arrival chain, drain the kernel, collect the result. With a shared
// Config.Kernel, draining runs every component's pending events, so
// composed experiments use Start/Result directly instead.
func (s *Server) Run() Result {
	s.Start()
	s.k.Run()
	return s.Result()
}

// Start schedules the request stream on the kernel: the first arrival is
// drawn from the stream's deterministic gap sequence, and each arrival
// event schedules its successor, so the whole stream interleaves with any
// other work sharing the kernel. Arrival gaps are resolved against the
// fault schedule at the previous arrival's instant — a flash-crowd window
// compresses exactly the gaps that fall inside it.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.cfg.Requests == 0 {
		return
	}
	t0 := s.k.Now()
	mean := 1 / s.cfg.ArrivalRate
	s.actor.At(t0+s.inj.ArrivalGapAt(0, mean, t0), s.onArrival(0))
}

// onArrival builds the arrival event for request i: serve it at its
// stamped arrival instant, fold the record into the running result, and
// schedule the next arrival.
func (s *Server) onArrival(i int) func(stamp float64) {
	return func(stamp float64) {
		rec := s.serveOne(i, stamp)
		s.obs.record(&rec)
		s.res.Records = append(s.res.Records, rec)
		switch rec.Outcome {
		case Served:
			s.res.Served++
			s.res.TierCounts[rec.Tier]++
			if s.cfg.EvalX != nil {
				s.scored++
				if rec.Correct {
					s.correct++
				}
			}
		case Shed:
			s.res.Shed++
		case Failed:
			s.res.Failed++
		}
		if rec.Hedged {
			s.res.HedgesLaunched++
		}
		if rec.HedgeWon {
			s.res.HedgeWins++
		}
		if next := i + 1; next < s.cfg.Requests {
			mean := 1 / s.cfg.ArrivalRate
			s.actor.At(stamp+s.inj.ArrivalGapAt(next, mean, stamp), s.onArrival(next))
		}
	}
}

// Result finalises and returns the run summary. Call it after the kernel
// has drained the arrival chain; calling again returns the same result.
func (s *Server) Result() Result {
	if s.finished {
		return s.res
	}
	s.finished = true
	total := float64(s.cfg.Requests)
	s.res.Availability = float64(s.res.Served) / total
	s.res.ShedRate = float64(s.res.Shed) / total
	var lats []float64
	for _, r := range s.res.Records {
		if r.Outcome == Served {
			lats = append(lats, r.LatencyS)
		}
	}
	s.res.P50S = quantile(lats, 0.5)
	s.res.P99S = quantile(lats, 0.99)
	for _, st := range s.states {
		s.res.BreakerOpened += st.br.Opened()
		s.res.BreakerReclosed += st.br.Reclosed()
	}
	if s.scored > 0 {
		s.res.MixAccuracy = float64(s.correct) / float64(s.scored)
	}
	return s.res
}

// serveOne walks one request through admission, attempts, retries, and
// hedging, returning its ledger line.
func (s *Server) serveOne(id int, arrival float64) RequestRecord {
	rec := RequestRecord{ID: id, ArrivalS: arrival, Replica: -1}
	deadline := arrival + s.deadlineS
	dispatch := arrival
	lastFail := arrival
	for attempt := 0; attempt < serverAttempts; attempt++ {
		if dispatch > deadline {
			break
		}
		prim := s.dispatch(id, attempt, dispatch, deadline, -1, Tier(-1))
		if prim.rejected {
			// Admission control: nothing can meet the deadline budget.
			// On first contact that is a shed (the client is told
			// immediately); mid-retry it is a failure.
			if attempt == 0 {
				rec.Outcome = Shed
				rec.FinishS = dispatch
				return rec
			}
			break
		}
		rec.Attempts++
		winner := prim
		failEnd := prim.finishS
		// Hedge: if the attempt ran past the latency quantile, a second
		// copy was sent at the moment the quantile elapsed, to a
		// different replica of the SAME tier (hedging fights latency;
		// tier degradation is the router's job). Earliest in-deadline
		// success wins.
		if q, ok := s.hedgeLatency(); ok && prim.finishS-dispatch > q {
			hd := dispatch + q
			if hd <= deadline {
				primTier := s.cfg.Replicas[prim.replica].Variant.Tier
				hedge := s.dispatch(id, attempt+4, hd, deadline, prim.replica, primTier)
				if !hedge.rejected {
					rec.Hedged = true
					if hedge.finishS > failEnd {
						failEnd = hedge.finishS
					}
					primGood := prim.ok && prim.finishS <= deadline
					hedgeGood := hedge.ok && hedge.finishS <= deadline
					if hedgeGood && (!primGood || hedge.finishS < prim.finishS) {
						winner = hedge
						rec.HedgeWon = true
					}
				}
			}
		}
		if winner.ok && winner.finishS <= deadline {
			rec.Outcome = Served
			rec.FinishS = winner.finishS
			rec.LatencyS = winner.finishS - arrival
			rec.Replica = winner.replica
			rec.Tier = s.cfg.Replicas[winner.replica].Variant.Tier
			if s.cfg.EvalX != nil {
				row := id % len(s.cfg.EvalLabels)
				rec.Correct = s.preds[rec.Tier][row] == s.cfg.EvalLabels[row]
			}
			return rec
		}
		// Every copy failed or finished past the deadline: retry with
		// exponential backoff from the latest failure.
		lastFail = failEnd
		backoff := s.backoffS * float64(int(1)<<attempt)
		dispatch = lastFail + backoff
	}
	rec.Outcome = Failed
	rec.FinishS = lastFail
	return rec
}

// dispatch routes one attempt: picks the best admissible replica, charges
// its device, draws faults, advances replica state, and feeds the
// breaker. exclude (-1 for none) bars the primary's replica from hedges;
// onlyTier (-1 for any) pins hedges to the primary's tier.
func (s *Server) dispatch(id, attempt int, now, deadline float64, exclude int, onlyTier Tier) attemptResult {
	ri := s.route(now, deadline, exclude, onlyTier)
	if ri < 0 {
		return attemptResult{rejected: true}
	}
	st := s.states[ri]
	rep := s.cfg.Replicas[ri]
	service := rep.ServiceS()
	start := now
	if st.busyUntilS > start {
		start = st.busyUntilS
	}

	// A down replica fails fast: the connection is refused after a
	// fraction of a service time, without occupying the worker.
	if st.downUntilS > now {
		finish := now + 0.1*service
		st.br.Record(finish, false)
		return attemptResult{ok: false, finishS: finish, replica: ri}
	}

	// Draw this attempt's faults from independent per-(replica, request,
	// attempt) hash streams, resolved against the fault schedule at the
	// attempt's own simulated instant (requests carry absolute times, so
	// a crash window hits exactly the attempts dispatched inside it).
	crashed := s.inj.ChanceAt(fault.KindCrash, ri, id, attempt, now)
	factor := 1.0
	if s.inj.ChanceAt(fault.KindStraggle, ri, id, attempt, now) {
		// A straggle window's factor defaults to 8, as in training.
		if factor = s.inj.FactorAt(fault.KindStraggle, ri, now); factor <= 1 {
			factor = 8
		}
	}
	dropped := s.inj.ChanceAt(fault.KindDrop, ri, id, attempt, now)
	corrupted := s.inj.ChanceAt(fault.KindCorrupt, ri, id, attempt, now)

	work := service * factor
	switch {
	case crashed:
		// The replica dies mid-request and needs a restart.
		finish := start + 0.5*work
		st.busyUntilS = finish
		st.downUntilS = finish + s.restartS
		st.done = append(st.done, finish)
		st.br.Record(finish, false)
		return attemptResult{ok: false, finishS: finish, replica: ri}
	case dropped, corrupted:
		// Full work done, but the response is lost or fails its check.
		finish := start + work
		st.busyUntilS = finish
		st.done = append(st.done, finish)
		st.br.Record(finish, false)
		return attemptResult{ok: false, finishS: finish, replica: ri}
	default:
		finish := start + work
		st.busyUntilS = finish
		st.done = append(st.done, finish)
		st.br.Record(finish, true)
		s.recordLatency(finish - now)
		return attemptResult{ok: true, finishS: finish, replica: ri}
	}
}

// route picks the serving replica for an attempt: tiers are tried best
// first (only the best tier when Fallback is off; only onlyTier when it
// is set); within a tier the admissible replica with the earliest
// projected start wins, ties broken by lowest id. A replica is admissible
// when its breaker allows traffic, its queue has room, and its projected
// completion meets the deadline.
func (s *Server) route(now, deadline float64, exclude int, onlyTier Tier) int {
	from, to := s.minTier, numTiers
	if onlyTier >= 0 {
		from, to = onlyTier, onlyTier+1
	}
	for t := from; t < to; t++ {
		best, bestStart := -1, 0.0
		for _, ri := range s.byTier[t] {
			if ri == exclude {
				continue
			}
			st := s.states[ri]
			if !st.br.Allow(now) {
				continue
			}
			if st.pending(now) >= serverQueueCap {
				continue
			}
			start := now
			if st.busyUntilS > start {
				start = st.busyUntilS
			}
			if start+s.cfg.Replicas[ri].ServiceS() > deadline {
				continue // queue wait already blows the deadline budget
			}
			if best < 0 || start < bestStart {
				best, bestStart = ri, start
			}
		}
		if best >= 0 {
			return best
		}
		if !s.cfg.Fallback {
			break
		}
	}
	return -1
}

// hedgeLatency returns the current hedging trigger (the configured
// quantile of recent successful attempt latencies) once enough samples
// have accumulated. It sorts a copy of the ring in the Server's scratch
// slice, so a check allocates nothing.
func (s *Server) hedgeLatency() (float64, bool) {
	if s.cfg.HedgeQuantile <= 0 || s.latN < hedgeMinSamples {
		return 0, false
	}
	s.hedgeQ = append(s.hedgeQ[:0], s.lat[:s.latN]...)
	return quantile(s.hedgeQ, s.cfg.HedgeQuantile), true
}

func (s *Server) recordLatency(d float64) {
	s.lat[s.latHead] = d
	s.latHead = (s.latHead + 1) % len(s.lat)
	if s.latN < len(s.lat) {
		s.latN++
	}
}

// tierPredictions scores one representative model per tier over the eval
// matrix.
func tierPredictions(reps [numTiers]Predictor, evalX *tensor.Tensor) (preds [numTiers][]int) {
	for t, m := range reps {
		if m != nil {
			preds[t] = m.Predict(evalX)
		}
	}
	return preds
}

// quantile returns the q-quantile of xs by nearest rank, sorting xs in
// place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := int(q * float64(len(xs)))
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}
