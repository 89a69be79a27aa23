// Package distributed simulates data-parallel distributed training in a
// single process, reproducing the communication-efficiency techniques of
// Part 1 of the tutorial (§2.1): synchronous gradient averaging, Local SGD
// (average parameters every H steps), top-k gradient sparsification with
// error feedback, low-bit gradient quantization, and priority-based
// parameter propagation. Worker replicas are exact and deterministic; the
// network is replaced by byte accounting plus the analytic link model in
// internal/device, which preserves the communication/accuracy tradeoffs the
// real systems exhibit.
//
// The simulator is fault-tolerant: an internal/fault injector can crash
// workers (they rejoin from CRC-checked snapshots, internal/checkpoint),
// slow them down (mitigated by drop-slowest-k a.k.a. backup-worker
// aggregation), and drop or corrupt messages (survived by retransmission
// with exponential backoff). Every failure scenario derives from the fault
// seed, so runs are bit-reproducible, faults and all. Workers compute on
// the tensor package's worker pool with per-worker RNG streams, so
// execution order cannot perturb results.
package distributed

import (
	"math"
	"math/rand"
	"sort"

	"dlsys/internal/checkpoint"
	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
	"dlsys/internal/sim"
	"dlsys/internal/tensor"
)

// Config controls a simulated distributed training run.
type Config struct {
	Workers   int
	Arch      nn.MLPConfig
	Epochs    int     // passes over the full (sharded) dataset
	BatchSize int     // per-worker batch size
	LR        float64 // plain SGD learning rate on every worker
	// AveragePeriod is H in Local SGD: parameters are averaged across
	// workers every H local steps. H=1 with no compression is exactly
	// synchronous gradient averaging.
	AveragePeriod int
	// TopK, in (0, 1], is the fraction of gradient entries communicated
	// per step (1 = dense). Only used when AveragePeriod == 1, i.e. the
	// gradient-exchange regime. Dropped coordinates accumulate in a local
	// error-feedback residual.
	TopK float64
	// QuantBits quantizes communicated gradient values to this many bits
	// (0 or 32 disables). Applied after top-k selection.
	QuantBits int
	// NoErrorFeedback disables the error-feedback residual: coordinates
	// dropped by top-k are discarded instead of accumulated for the next
	// round. Exists for the ablation showing why error feedback matters.
	NoErrorFeedback bool

	// Fault configures the deterministic fault injector. The zero value is
	// a perfect world and reproduces the historical fault-free behaviour.
	Fault fault.Config
	// Device drives the simulated clock (compute and link times). Zero
	// value selects device.GPUSmall.
	Device device.Profile
	// MaxRetries bounds the send attempts per gradient/model upload within
	// one round (default 4, at most 64); a sender that exhausts them times
	// out and is excluded from that round's average.
	MaxRetries int
	// DropSlowestK enables straggler mitigation: each averaging round the
	// k slowest workers are excluded from aggregation (the backup-worker
	// pattern — the round completes at the pace of the fastest survivors).
	// Excluded gradients fold into the error-feedback residual when it is
	// enabled, so their work is deferred rather than lost.
	DropSlowestK int
	// SnapshotPeriod is how many averaging rounds pass between global
	// model snapshots (default 5 when faults are enabled). Crashed workers
	// rejoin by restoring the newest snapshot whose CRC verifies.
	SnapshotPeriod int

	// Topology selects the collective communication pattern for averaging
	// rounds. The zero value keeps the historical parameter-server star
	// bit-for-bit; the explicit Topo* collectives price per-hop costs with
	// device.TransferTime on the simulated clock, heal around injected
	// link faults, and degrade to the all-to-all fallback when healing
	// would break the contribution quorum.
	Topology Topology
	// Churn is the deterministic elastic-membership schedule: each event
	// makes one worker join or leave at the start of its round. Joiners
	// catch up from the newest CRC-valid snapshot. An empty schedule keeps
	// membership static (the historical behaviour).
	Churn []ChurnEvent

	// Guard, when non-nil, screens worker contributions for numerical
	// faults before they reach the aggregate: a worker whose loss or
	// gradient is non-finite is excluded from the round (sync regime), and
	// a worker whose parameters went non-finite is restored from the
	// newest snapshot (Local SGD regime). With guard.Observe the faults
	// are counted but allowed through — the unguarded baseline.
	Guard *guard.Policy

	// Obs, when non-nil, receives live metrics (counters mirroring every
	// Stats field, per-worker step-latency histograms) and sync-round spans
	// stamped from the simulated clock. Nil disables instrumentation at
	// near-zero cost.
	Obs *obs.Handle

	// Aggregator combines worker contributions each averaging round:
	// gradients in the synchronous regime, parameter vectors under Local
	// SGD. Nil selects the plain mean and reproduces the historical
	// behaviour bit-for-bit (no aggregation cost is charged to the
	// simulated clock). A non-nil aggregator — robust.CoordMedian,
	// robust.TrimmedMean, robust.Krum, robust.NormClip, or robust.Mean as
	// the accounted baseline — additionally charges its FLOPs cost model
	// as simulated aggregation time and emits an "aggregate" span.
	Aggregator robust.Aggregator
	// Reputation, when non-nil, enables the per-worker reputation tracker:
	// an EMA of each worker's distance to the aggregate. Persistent
	// offenders are quarantined (excluded from aggregation, still
	// receiving updates) and readmitted after a probation window, with
	// every transition recorded in the replay-fingerprinted Stats ledger.
	Reputation *robust.ReputationConfig

	// Kernel, when non-nil, is the shared simulation kernel the run takes
	// its clock from, letting training compose with other kernel-driven
	// components (the serving fleet, scheduled fault windows) on one
	// timeline. Nil creates a private kernel and reproduces the historical
	// standalone behaviour bit-for-bit.
	Kernel *sim.Kernel
}

// Stats reports what a run cost and how it progressed.
type Stats struct {
	BytesSent      int64     // total worker→server + server→worker traffic
	AveragingRound int       // parameter/gradient exchanges performed
	Steps          int       // per-worker optimizer steps
	EpochLoss      []float64 // mean worker-0 loss per epoch

	// Reliability counters (all zero in a fault-free run).
	Retransmissions int     // message attempts beyond the first
	DroppedMessages int     // attempts lost in flight
	Corruptions     int     // attempts rejected by the receiver's CRC
	Timeouts        int     // uploads abandoned after MaxRetries attempts
	Crashes         int     // worker crash events
	Rejoins         int     // workers that came back after a crash
	Restores        int     // snapshot restores performed on rejoin
	Snapshots       int     // global snapshots taken
	SnapshotBytes   int64   // bytes written as snapshots
	StragglerRounds int     // rounds where >=1 participant straggled
	ExcludedSlow    int     // worker-rounds excluded by DropSlowestK
	SimSeconds      float64 // simulated wall-clock on Config.Device
	AggSeconds      float64 // simulated time spent in the (explicit) aggregator

	// Topology counters (all zero under the default parameter-server star
	// with static membership).
	LinkDropped       int     // hop attempts lost to link faults
	LinkSlowHops      int     // hops priced over a degraded (slowed) link
	LinkExcluded      int     // member-rounds a link failure or partition excluded from contributing
	PartitionedRounds int     // rounds in which an active partition severed >=1 member
	TopoHeals         int     // successful reroutes around dead links or a partitioned side
	TopoDegraded      int     // rounds degraded to the all-to-all fallback to preserve quorum
	MembershipEpochs  int     // distinct member sets the topology was (re)built for
	Joins             int     // elastic-membership joins executed
	Leaves            int     // elastic-membership leaves executed
	CatchUps          int     // joiners that caught up from a CRC-valid snapshot
	CommRounds        int     // collective exchanges executed
	CommSeconds       float64 // simulated time spent inside collective exchanges

	// Numerical-fault counters (all zero without numerical fault config).
	NumericalFaults int // batches poisoned / labels shuffled by the injector
	GuardSkipped    int // worker contributions excluded by the guard
	GuardRestores   int // worker models rolled back after poisoned updates

	// Byzantine counters (all zero without adversarial fault config).
	ByzantineAttacks   int // poisoned uploads injected by adversarial workers
	QuarantineExcluded int // worker-rounds excluded while quarantined
	Quarantines        int // quarantine events recorded in the ledger
	Readmissions       int // probation expiries readmitting workers
	// Quarantine is the replay-fingerprinted quarantine event ledger (nil
	// unless Config.Reputation is set).
	Quarantine *robust.Ledger
}

const wireBytesPerFloat = 4 // gradients/parameters travel as float32

// Train runs the configured algorithm over x/y and returns the final
// (consensus) model plus stats. Training is deterministic for a given seed
// and fault seed, regardless of worker execution order. It is the
// standalone wrapper over the kernel-driven Job API: build the job, start
// it, drain the kernel, collect the result. With a shared Config.Kernel,
// draining runs every component's pending events, so composed experiments
// use NewJob/Start/Result directly instead.
func Train(seed int64, x, y *tensor.Tensor, cfg Config) (*nn.Network, Stats, error) {
	j, err := NewJob(seed, x, y, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	j.Start()
	j.k.Run()
	return j.Result()
}

type worker struct {
	id       int
	net      *nn.Network
	trainer  *nn.Trainer
	rng      *rand.Rand // per-worker stream: batch shuffles only
	shard    []int
	residual []float64 // error-feedback accumulator for dropped coordinates
	downTo   int       // round before which the worker is down (0 = up)
	absent   bool      // elastically left (or not yet joined) via the churn schedule
	lastLoss float64
	bx, by   *tensor.Tensor // batch buffers, reused across rounds
	grad     []float64      // flat gradient buffer, reused across rounds
}

// nextBatch gathers the worker's batch for step into its own buffers; the
// batch is valid until the worker's next call.
func (w *worker) nextBatch(x, y *tensor.Tensor, step, bs int) (*tensor.Tensor, *tensor.Tensor) {
	start := (step * bs) % len(w.shard)
	end := start + bs
	if end > len(w.shard) {
		end = len(w.shard)
	}
	w.bx, w.by = nn.GatherBatchInto(w.bx, w.by, x, y, w.shard[start:end])
	return w.bx, w.by
}

// liveWorkers applies crash and rejoin transitions for the round and
// returns the up workers in id order.
func (j *Job) liveWorkers(round int) []*worker {
	stats, ins := &j.stats, j.ins
	active := make([]*worker, 0, len(j.workers))
	for _, wk := range j.workers {
		if wk.absent {
			continue // elastically departed (or not yet joined)
		}
		if wk.downTo > round {
			continue // still down
		}
		if wk.downTo > 0 {
			// Rejoin: restore the newest verifiable snapshot. A corrupted
			// newer snapshot is detected by its CRC and skipped.
			if _, skipped, err := j.store.Restore(wk.net); err == nil {
				stats.Restores++
				stats.Corruptions += skipped
				ins.restores.Inc()
				ins.corrupts.Add(int64(skipped))
			}
			stats.Rejoins++
			ins.rejoins.Inc()
			wk.downTo = 0
			for i := range wk.residual {
				wk.residual[i] = 0 // crash wiped worker memory
			}
		}
		if j.inj.Crashes(wk.id, round) {
			stats.Crashes++
			ins.crashes.Inc()
			wk.downTo = round + j.inj.RestartDelay()
			continue
		}
		active = append(active, wk)
	}
	return active
}

// gradResult is one worker's contribution to a synchronous round.
type gradResult struct {
	wk        *worker
	loss      float64
	grad      []float64
	seconds   float64 // simulated compute time incl. straggle factor
	injected  int     // numerical faults injected into this worker's batch
	poisoned  bool    // loss or gradient is non-finite
	byzantine bool    // gradient adversarially corrupted (finite, so it
	// slips past the guard — only robust aggregation defends)
}

// computeGrads runs every active worker's forward/backward — a local
// optimizer step when localStep is set — on tensor.ParallelFor, the
// persistent pool: inline at GOMAXPROCS 1, and otherwise in at most
// GOMAXPROCS chunks of workers. It records each worker's compute time.
// Determinism holds because workers share no mutable state and results
// are indexed, and consumed, in worker-id order.
func (j *Job) computeGrads(active []*worker, step, round int, localStep bool) []gradResult {
	inj := j.inj
	results := make([]gradResult, len(active))
	tensor.ParallelFor(len(active), func(lo, hi int) {
		for i, wk := range active[lo:hi] {
			bx, by := wk.nextBatch(j.x, j.y, step, j.cfg.BatchSize)
			r := gradResult{wk: wk}
			// Numerical fault injection: the draws are keyed by
			// (worker, round), so concurrent execution order cannot
			// change which batches get poisoned.
			if inj.CorruptsBatch(wk.id, round) {
				inj.CorruptBatchValues(bx.Data, wk.id, round)
				r.injected++
			}
			if inj.LabelNoise(wk.id, round) {
				inj.ShuffleLabels(by.Data, by.Dim(0), by.Dim(1), wk.id, round)
				r.injected++
			}
			// Colluding workers poison their batch labels with a shared
			// rotation before computing, so the coalition's gradients all
			// push the same wrong way.
			if inj.ColludesBatch(wk.id, round) {
				inj.ColludeShuffleLabels(by.Data, by.Dim(0), by.Dim(1), round)
			}
			var loss float64
			if localStep {
				loss = wk.trainer.Step(bx, by)
			} else {
				loss = wk.trainer.ComputeGrad(bx, by)
			}
			wk.lastLoss = loss
			r.loss = loss
			if !localStep {
				// The buffer is the worker's: its contents live until the
				// worker's next round, past every read of this one.
				wk.grad = wk.net.GradVectorInto(wk.grad)
				r.grad = wk.grad
				// Byzantine corruption happens on the upload, after the
				// honest local computation; the result stays finite.
				r.byzantine = inj.CorruptGradient(r.grad, wk.id, round)
				r.poisoned = math.IsNaN(loss) || math.IsInf(loss, 0) || !tensor.AllFinite(r.grad)
			}
			r.seconds = j.prof.ComputeTime(j.flopsPerExample*int64(bx.Dim(0)), 0.5) * inj.StraggleFactor(wk.id, round)
			results[lo+i] = r
		}
	})
	j.ins.observeSteps(results)
	return results
}

// tally counts the round's injected numerical faults, Byzantine uploads and
// stragglers, and returns the slowest worker's compute time.
func (j *Job) tally(results []gradResult) float64 {
	slow := j.prof.ComputeTime(j.flopsPerExample*int64(j.cfg.BatchSize), 0.5) * 1.5
	var computeS float64
	straggled := false
	for _, r := range results {
		j.stats.NumericalFaults += r.injected
		j.ins.numFaults.Add(int64(r.injected))
		if r.byzantine {
			j.stats.ByzantineAttacks++
			j.ins.byzAttacks.Inc()
		}
		straggled = straggled || r.seconds > slow
		computeS = max(computeS, r.seconds)
	}
	if straggled {
		j.stats.StragglerRounds++
		j.ins.stragglerRounds.Inc()
	}
	return computeS
}

// syncRound executes one synchronous gradient-exchange round over the
// configured topology. Returns the first participant's loss and whether
// the round produced an update. Spans record compute, then aggregate (an
// explicit aggregator only), then comm — the last only when some
// contribution arrived.
func (j *Job) syncRound(active []*worker, step, round int, span *obs.Span) (float64, bool) {
	cfg := j.cfg
	roundStart := j.clk.now()
	j.rep.BeginRound(round)
	results := j.computeGrads(active, step, round, false)
	j.tally(results)
	included := j.screenRound(results)

	// Each admitted worker compresses its gradient in place, so the
	// aggregate reflects what was actually communicated; the exchange moves
	// what it sends.
	var computeS float64
	var payload int64
	ups := make([]upload, len(included))
	for i, r := range included {
		computeS = max(computeS, r.seconds)
		residual := r.wk.residual
		if cfg.NoErrorFeedback {
			residual = nil
		}
		ups[i] = upload{r.wk, compressGradient(r.grad, residual, cfg.TopK, cfg.QuantBits)}
		payload = max(payload, ups[i].bytes)
	}
	lost, upS := j.exchange(active, ups, payload, round)
	j.clk.advance(computeS + upS)
	computeSpan := span.Child("compute", roundStart)
	computeSpan.End(roundStart + computeS)

	// A contribution that did not arrive — a timed-out upload, a member a
	// dead link or partition cut off — is parked in the error-feedback
	// residual, so its work is deferred rather than discarded.
	ids := make([]int, 0, len(included))
	grads := make([][]float64, 0, len(included))
	for _, r := range included {
		if !lost[r.wk.id] {
			ids = append(ids, r.wk.id)
			grads = append(grads, r.grad)
		} else if !cfg.NoErrorFeedback {
			for i, g := range r.grad {
				r.wk.residual[i] += g
			}
		}
	}
	avgGrad := j.aggregate(ids, grads, span, roundStart+computeS+upS)
	if avgGrad == nil {
		return 0, false // nothing arrived: no update this round
	}
	downS := j.release(active, broadcastBytes(avgGrad, cfg), round)
	commSpan := span.Child("comm", roundStart+computeS)
	commSpan.End(roundStart + computeS + upS + downS)
	for _, wk := range active {
		wk.net.SetGradVector(avgGrad)
		wk.trainer.Opt.Step(wk.net.Params())
		wk.net.PostStep()
	}
	j.stats.AveragingRound++
	j.ins.rounds.Inc()
	return results[0].loss, true
}

// screenRound applies the per-round contribution screens in their
// historical order — the numerical guard, reputation quarantine, then
// drop-slowest-k — and returns the contributions admitted to aggregation.
func (j *Job) screenRound(results []gradResult) []gradResult {
	cfg, stats, ins := j.cfg, &j.stats, j.ins

	// Numerical guard: a poisoned contribution (non-finite loss or
	// gradient) is excluded before aggregation — one NaN in the average
	// poisons every replica. The poisoned gradient is NOT folded into the
	// residual: deferring it would just re-inject the poison later.
	screened := results
	if cfg.Guard != nil && cfg.Guard.Mode == guard.Enforce {
		kept := make([]gradResult, 0, len(results))
		for _, r := range results {
			if r.poisoned {
				stats.GuardSkipped++
				ins.guardSkipped.Inc()
				continue
			}
			kept = append(kept, r)
		}
		screened = kept
	}

	// Quarantine: workers the reputation tracker has excluded do not
	// contribute this round. Their gradients are NOT folded into the
	// residual — a quarantined gradient is suspect by definition, and
	// deferring it would re-inject the poison on readmission.
	if j.rep != nil {
		kept := make([]gradResult, 0, len(screened))
		for _, r := range screened {
			if j.rep.Quarantined(r.wk.id) {
				stats.QuarantineExcluded++
				ins.quarExcluded.Inc()
				continue
			}
			kept = append(kept, r)
		}
		screened = kept
	}

	// Straggler mitigation: the aggregation round closes after the fastest
	// len(screened)-k workers report — the k slowest are cut out.
	included := screened
	if k := cfg.DropSlowestK; k > 0 && len(screened) > k {
		order := make([]int, len(screened))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ra, rb := screened[order[a]], screened[order[b]]
			if ra.seconds != rb.seconds {
				return ra.seconds < rb.seconds
			}
			return ra.wk.id < rb.wk.id
		})
		included = make([]gradResult, 0, len(screened)-k)
		for _, oi := range order[:len(screened)-k] {
			included = append(included, screened[oi])
		}
		sort.Slice(included, func(a, b int) bool { return included[a].wk.id < included[b].wk.id })
		for _, oi := range order[len(screened)-k:] {
			r := screened[oi]
			stats.ExcludedSlow++
			ins.excludedSlow.Inc()
			if !cfg.NoErrorFeedback {
				// Defer the dropped worker's gradient instead of losing it.
				for i, g := range r.grad {
					r.wk.residual[i] += g
				}
			}
		}
	}

	return included
}

// localRound executes one Local SGD step on every active worker in
// parallel and accounts its simulated compute time. Under an enforcing
// guard, a worker whose parameters went non-finite (it already applied a
// poisoned update locally) is rolled back to the newest verifiable global
// snapshot instead of shipping NaNs into the next average.
func (j *Job) localRound(active []*worker, step, round int) {
	results := j.computeGrads(active, step, round, true)
	computeS := j.tally(results)
	if j.cfg.Guard != nil && j.cfg.Guard.Mode == guard.Enforce {
		var buf []float64
		for _, r := range results {
			buf = r.wk.net.ParamVectorInto(buf)
			if !tensor.AllFinite(buf) {
				if _, _, err := j.store.Restore(r.wk.net); err == nil {
					j.stats.GuardRestores++
					j.ins.guardRestores.Inc()
				}
			}
		}
	}
	j.clk.advance(computeS)
}

// averageRound is Local SGD's model-averaging exchange over the configured
// topology: every live worker contributes its parameters and receives the
// aggregate back. Workers whose contribution was lost still receive the
// aggregate, which re-synchronises any post-crash drift; quarantined
// workers are excluded from contributing but receive it too, so a
// readmitted worker rejoins in sync (mirroring the crash-rejoin path).
// Byzantine workers corrupt their uploaded parameter vector.
func (j *Job) averageRound(active []*worker, round int) {
	j.rep.BeginRound(round)
	modelBytes := int64(j.modelSize) * wireBytesPerFloat
	ups := make([]upload, 0, len(active))
	for _, wk := range active {
		if j.rep.Quarantined(wk.id) {
			j.stats.QuarantineExcluded++
			j.ins.quarExcluded.Inc()
			continue
		}
		ups = append(ups, upload{wk, modelBytes})
	}
	lost, upS := j.exchange(active, ups, modelBytes, round)
	j.clk.advance(upS)
	ids := make([]int, 0, len(ups))
	vecs := make([][]float64, 0, len(ups))
	for _, u := range ups {
		if lost[u.wk.id] {
			continue
		}
		v := u.wk.net.ParamVectorInto(nil)
		if j.inj.CorruptGradient(v, u.wk.id, round) {
			j.stats.ByzantineAttacks++
			j.ins.byzAttacks.Inc()
		}
		ids = append(ids, u.wk.id)
		vecs = append(vecs, v)
	}
	avg := j.aggregate(ids, vecs, nil, 0)
	if avg == nil {
		return
	}
	j.release(active, modelBytes, round)
	for _, wk := range active {
		wk.net.SetParamVector(avg)
	}
	j.stats.AveragingRound++
	j.ins.rounds.Inc()
}

// aggregate combines the delivered vectors (worker-id order, matching ids)
// and feeds the reputation tracker each contributor's distance to the
// result. An explicitly configured aggregator is charged its FLOPs cost on
// the simulated clock — robustness costs time, and X9 measures it — and,
// under a non-nil span, recorded as an "aggregate" child from startS.
// Returns nil when nothing was delivered.
func (j *Job) aggregate(ids []int, vecs [][]float64, span *obs.Span, startS float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	if j.chargeAgg {
		aggS := j.prof.ComputeTime(j.agg.FLOPs(len(vecs), j.modelSize), 0.5)
		aggSpan := span.Child("aggregate", startS)
		aggSpan.End(startS + aggS)
		j.clk.advance(aggS)
		j.stats.AggSeconds += aggS
	}
	out := make([]float64, j.modelSize)
	j.agg.Aggregate(out, vecs)
	if j.rep != nil {
		dists := make([]float64, len(vecs))
		for i, v := range vecs {
			var s float64
			for k := range v {
				d := v[k] - out[k]
				s += d * d
			}
			dists[i] = math.Sqrt(s)
		}
		j.rep.Observe(ids, dists)
	}
	return out
}

// snapshot captures the consensus model, possibly corrupting the stored
// payload (which a later Restore detects via CRC and skips).
func (j *Job) snapshot(step int, net *nn.Network) {
	snap := checkpoint.TakeSnapshot(step, net)
	if j.inj.Corrupts(-1, step, 0) {
		j.inj.CorruptPayload(snap.Payload, -1, step, 0)
	}
	j.store.Put(snap)
	j.stats.Snapshots++
	j.stats.SnapshotBytes += snap.Bytes()
	j.ins.snapshots.Inc()
	j.ins.snapshotBytes.Add(snap.Bytes())
}

// transport simulates the cluster links: per-attempt loss/corruption from
// the fault injector, retry with exponential backoff, byte accounting per
// attempt (retransmissions cost real bandwidth), and simulated seconds
// from the device profile.
type transport struct {
	inj        *fault.Injector
	prof       device.Profile
	maxRetries int
	backoffS   float64
	obs        *distObs // always non-nil; build with newDistObs (nil handle → no-ops)

	// One collective walk's scratch, reset when the next walk starts: each
	// phase's hops, and the link table by hop position.
	hops  []hop
	table []walkHop
}

// send attempts a worker upload up to maxRetries times. Returns whether
// the message was delivered plus the simulated seconds spent.
func (t *transport) send(worker, msgKey int, bytes int64, stats *Stats) (bool, float64) {
	var elapsed float64
	for attempt := 0; attempt < t.maxRetries; attempt++ {
		if attempt > 0 {
			stats.Retransmissions++
			t.obs.retrans.Inc()
			elapsed += t.backoffS * float64(int64(1)<<(attempt-1))
		}
		stats.BytesSent += bytes
		t.obs.bytesSent.Add(bytes)
		elapsed += t.prof.SendTime(bytes)
		if t.inj.Corrupts(worker, msgKey, attempt) {
			stats.Corruptions++
			t.obs.corrupts.Inc()
			continue // receiver's CRC rejects the payload → retry
		}
		if t.inj.Drops(worker, msgKey, attempt) {
			stats.DroppedMessages++
			t.obs.drops.Inc()
			continue
		}
		return true, elapsed
	}
	return false, elapsed
}

// broadcast is the server→worker path. The server retries past the
// per-round budget (it persists across rounds), so delivery is guaranteed;
// the attempt cap is only a safeguard against pathological configs with
// loss probability ~1.
func (t *transport) broadcast(worker, msgKey int, bytes int64, stats *Stats) (bool, float64) {
	var elapsed float64
	const hardCap = 64
	for attempt := 0; attempt < hardCap; attempt++ {
		if attempt > 0 {
			stats.Retransmissions++
			t.obs.retrans.Inc()
			stats.BytesSent += bytes // each re-send crosses the link again
			t.obs.bytesSent.Add(bytes)
			backoff := attempt
			if backoff > 10 {
				backoff = 10
			}
			elapsed += t.backoffS * float64(int64(1)<<(backoff-1))
		}
		elapsed += t.prof.SendTime(bytes)
		if t.inj.Corrupts(worker, msgKey, attempt) {
			stats.Corruptions++
			t.obs.corrupts.Inc()
			continue
		}
		if t.inj.Drops(worker, msgKey, attempt) {
			stats.DroppedMessages++
			t.obs.drops.Inc()
			continue
		}
		return true, elapsed
	}
	return true, elapsed
}

func shardIndices(n, workers int) [][]int {
	shards := make([][]int, workers)
	for i := 0; i < n; i++ {
		w := i % workers
		shards[w] = append(shards[w], i)
	}
	return shards
}

func averageParams(workers []*worker) {
	avg := workers[0].net.ParamVector()
	var scratch []float64
	for _, wk := range workers[1:] {
		scratch = wk.net.ParamVectorInto(scratch)
		for i := range avg {
			avg[i] += scratch[i]
		}
	}
	for i := range avg {
		avg[i] /= float64(len(workers))
	}
	for _, wk := range workers {
		wk.net.SetParamVector(avg)
	}
}

// compressGradient applies error feedback + top-k + quantization to g IN
// PLACE (so the averaged gradient reflects what was actually communicated)
// and returns the bytes a real system would send for it. A nil residual
// disables error feedback (dropped coordinates are lost).
//
// Degenerate knobs clamp rather than misbehave: topK outside (0, 1) sends
// the dense gradient (Train pre-clamps, but the function holds its own
// contract), and the quantizer width is clamped to [1, 16] bits — 0 and
// anything >= 32 disable quantization entirely.
func compressGradient(g, residual []float64, topK float64, bits int) int64 {
	if len(g) == 0 {
		return 0
	}
	if topK <= 0 || topK > 1 {
		topK = 1
	}
	bits = effectiveBits(bits)
	// Error feedback: add back what previous rounds dropped.
	if residual != nil {
		for i := range g {
			g[i] += residual[i]
			residual[i] = 0
		}
	}
	k := len(g)
	if topK < 1 {
		k = int(topK * float64(len(g)))
		if k < 1 {
			k = 1
		}
		// Select the k largest-magnitude coordinates.
		idx := make([]int, len(g))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return math.Abs(g[idx[a]]) > math.Abs(g[idx[b]])
		})
		keep := make(map[int]bool, k)
		for _, i := range idx[:k] {
			keep[i] = true
		}
		for i := range g {
			if !keep[i] {
				if residual != nil {
					residual[i] = g[i] // remember for next round
				}
				g[i] = 0
			}
		}
	}
	if bits > 0 {
		quantizeInPlace(g, bits)
	}
	valueBytes := int64(k) * wireBytesPerFloat
	if bits > 0 {
		valueBytes = (int64(k)*int64(bits) + 7) / 8
	}
	indexBytes := int64(0)
	if topK < 1 {
		indexBytes = int64(k) * 4
	}
	return valueBytes + indexBytes
}

// effectiveBits maps the configured QuantBits to the width actually
// applied: 0 (and anything >= 32) means "no quantization", negatives are
// treated as disabled too, and widths above 16 clamp to 16 — the widest
// the symmetric linear quantizer meaningfully supports on float32 wires.
func effectiveBits(bits int) int {
	if bits <= 0 || bits >= 32 {
		return 0
	}
	if bits > 16 {
		return 16
	}
	return bits
}

// quantizeInPlace applies symmetric linear quantization to the nonzero
// entries of g. The width is clamped to [1, 16] so a degenerate caller
// cannot trigger a negative shift.
func quantizeInPlace(g []float64, bits int) {
	if bits < 1 {
		bits = 1
	}
	if bits > 16 {
		bits = 16
	}
	var m float64
	for _, v := range g {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	if m == 0 {
		return
	}
	levels := float64(int64(1)<<(bits-1) - 1)
	if levels < 1 {
		levels = 1
	}
	step := m / levels
	for i, v := range g {
		g[i] = math.Round(v/step) * step
	}
}

// broadcastBytes accounts the server→one-worker traffic for the averaged
// update under the same compression settings.
func broadcastBytes(avg []float64, cfg Config) int64 {
	nz := 0
	for _, v := range avg {
		if v != 0 {
			nz++
		}
	}
	per := int64(nz) * wireBytesPerFloat
	if bits := effectiveBits(cfg.QuantBits); bits > 0 {
		per = (int64(nz)*int64(bits) + 7) / 8
	}
	if cfg.TopK < 1 {
		per += int64(nz) * 4
	}
	return per
}

// StepTimeModel computes the simulated per-step wall-clock time of
// data-parallel training on the given device profile, with and without
// priority-based parameter propagation (E8). With FIFO propagation the next
// forward pass waits for the whole parameter transfer; priority propagation
// ships the first layers first so the forward pass overlaps the tail of the
// transfer, hiding most of the communication.
func StepTimeModel(arch nn.MLPConfig, prof device.Profile, priority bool) float64 {
	// Per-layer compute times and parameter bytes.
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(rng, arch)
	var layers []struct {
		compute float64
		bytes   int64
	}
	for _, l := range net.Layers {
		var entry struct {
			compute float64
			bytes   int64
		}
		if fc, ok := l.(nn.FLOPsCounter); ok {
			entry.compute = prof.ComputeTime(3*fc.FLOPs(32), 0.5)
		}
		for _, p := range l.Params() {
			entry.bytes += int64(p.Value.Size()) * wireBytesPerFloat
		}
		layers = append(layers, entry)
	}
	bw := prof.LinkBandwidth
	if !priority {
		var transfer, compute float64
		for _, e := range layers {
			transfer += float64(e.bytes) / bw
			compute += e.compute
		}
		return prof.LinkLatencyS + transfer + compute
	}
	// Priority: layer i's compute can start once layers 0..i have arrived.
	var arrived float64 // time the i-th layer's params finish arriving
	var done float64    // time the i-th layer's compute finishes
	arrived = prof.LinkLatencyS
	for _, e := range layers {
		arrived += float64(e.bytes) / bw
		start := math.Max(arrived, done)
		done = start + e.compute
	}
	return done
}
