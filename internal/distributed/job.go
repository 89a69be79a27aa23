package distributed

import (
	"math"
	"math/rand"
	"sort"

	"dlsys/internal/checkpoint"
	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/invalid"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
	"dlsys/internal/sim"
	"dlsys/internal/tensor"
)

// jobClock adapts the shared simulation kernel to the job-relative
// simulated-seconds accounting Stats reports: now() is seconds since the
// job started, advance() charges simulated work to the shared clock. With
// a private kernel (standalone Train) t0 is zero and the accumulation
// sequence is identical to the historical SimSeconds arithmetic, so
// results stay bit-for-bit.
type jobClock struct {
	k  *sim.Kernel
	t0 float64
}

func (c *jobClock) now() float64      { return c.k.Now() - c.t0 }
func (c *jobClock) advance(d float64) { c.k.Advance(d) }

// Job is one distributed training run driven by a simulation kernel:
// every (epoch, step) round executes as a kernel event, so a Job composes
// with other kernel-driven components (the serving fleet, fault
// schedules) on one shared timeline. Build with NewJob, schedule with
// Start, drive the kernel, then collect with Result. Train wraps the
// three for the standalone path.
type Job struct {
	cfg  Config
	x, y *tensor.Tensor

	k     *sim.Kernel
	actor *sim.Actor
	clk   *jobClock

	inj       *fault.Injector
	prof      device.Profile
	agg       robust.Aggregator
	chargeAgg bool
	rep       *robust.Reputation
	ins       *distObs
	net       *transport
	store     *checkpoint.Store
	trainSpan *obs.Span

	global          *nn.Network
	workers         []*worker
	modelSize       int
	flopsPerExample int64
	stepsPerEpoch   int

	snaps       bool // snapshotting enabled (faults or elastic membership)
	churn       []ChurnEvent
	churnIdx    int
	lastMembers []int // member-id set of the previous round's topology

	stats     Stats
	epoch     int
	step      int
	epochLoss float64
	lossSteps int
	done      bool
	finalized bool
}

// The job's fixed retry and checkpoint policy: the base exponential-backoff
// delay before a retransmission, in simulated seconds, and how many global
// snapshots the checkpoint ring keeps resident, so large-n runs with
// periodic snapshots hold bounded memory.
const (
	retryBackoff float64 = 1e-3
	snapshotKeep         = 2
)

// NewJob validates the config and prepares a training job on the
// configured kernel (Config.Kernel, or a private one when nil — the
// standalone path). All model and worker state is initialised here; no
// simulated time passes until the kernel runs the scheduled rounds.
func NewJob(seed int64, x, y *tensor.Tensor, cfg Config) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A width the model cannot take would panic inside a worker goroutine,
	// which no caller can recover from.
	if x.Rank() != 2 || x.Dim(1) != cfg.Arch.In {
		return nil, invalid.New("distributed", "Arch.In", "%d, but x has shape %v", cfg.Arch.In, x.Shape())
	}
	if y.Rank() != 2 || y.Dim(1) != cfg.Arch.Out {
		return nil, invalid.New("distributed", "Arch.Out", "%d, but y has shape %v", cfg.Arch.Out, y.Shape())
	}
	if y.Dim(0) != x.Dim(0) {
		return nil, invalid.New("distributed", "NewJob", "x has %d examples but y has %d", x.Dim(0), y.Dim(0))
	}
	if cfg.AveragePeriod < 1 {
		cfg.AveragePeriod = 1
	}
	if cfg.TopK <= 0 || cfg.TopK > 1 {
		cfg.TopK = 1
	}
	if cfg.MaxRetries < 1 {
		cfg.MaxRetries = 4
	}
	if cfg.SnapshotPeriod < 1 {
		cfg.SnapshotPeriod = 5
	}
	k := cfg.Kernel
	if k == nil {
		k = sim.New()
	}
	j := &Job{
		cfg:   cfg,
		x:     x,
		y:     y,
		k:     k,
		actor: k.Actor("distributed"),
		clk:   &jobClock{k: k, t0: k.Now()},
	}
	if len(cfg.Fault.Schedule) > 0 {
		j.inj = fault.NewInjector(cfg.Fault)
		// Schedule windows resolve against absolute kernel time.
		j.inj.SetClock(k)
	}
	j.prof = cfg.Device
	if j.prof.Name == "" {
		j.prof = device.GPUSmall
	}
	// A nil aggregator is the historical plain mean with no aggregation
	// cost charged; an explicit one (even Mean) is accounted on the clock.
	j.agg = cfg.Aggregator
	j.chargeAgg = j.agg != nil
	if j.agg == nil {
		j.agg = robust.Mean{}
	}
	if cfg.Reputation != nil {
		j.rep = robust.NewReputation(*cfg.Reputation)
	}
	j.ins = newDistObs(cfg.Obs, cfg.Workers)
	j.net = &transport{inj: j.inj, prof: j.prof, maxRetries: cfg.MaxRetries, backoffS: retryBackoff, obs: j.ins}
	j.trainSpan = j.ins.span("distributed.train", j.clk.now())

	// All workers start from the same initialisation but own independent
	// RNG streams derived from (seed, workerID), so fault-induced
	// reordering of worker execution cannot change any worker's batches.
	// A replica is a copy of the global model, which draws nothing.
	j.global = nn.NewMLP(rand.New(rand.NewSource(seed)), cfg.Arch)
	j.workers = make([]*worker, cfg.Workers)
	shards := shardIndices(x.Dim(0), cfg.Workers)
	for w := range j.workers {
		wnet := nn.CloneMLP(j.global, cfg.Arch)
		wrng := rand.New(rand.NewSource(fault.WorkerSeed(seed, w)))
		j.workers[w] = &worker{
			id:       w,
			net:      wnet,
			trainer:  nn.NewTrainer(wnet, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(cfg.LR), wrng),
			rng:      wrng,
			shard:    shards[w],
			residual: make([]float64, wnet.NumParams()),
		}
	}

	// Elastic membership: the churn schedule executes in (round, worker)
	// order, and a worker whose earliest event is a join starts absent.
	j.churn = append([]ChurnEvent(nil), cfg.Churn...)
	sort.Slice(j.churn, func(a, b int) bool {
		if j.churn[a].Round != j.churn[b].Round {
			return j.churn[a].Round < j.churn[b].Round
		}
		return j.churn[a].Worker < j.churn[b].Worker
	})
	earliest := make(map[int]bool)
	for _, ev := range j.churn {
		if earliest[ev.Worker] {
			continue
		}
		earliest[ev.Worker] = true
		if ev.Join {
			j.workers[ev.Worker].absent = true
		}
	}

	j.store = checkpoint.NewStore(snapshotKeep)
	j.snaps = j.inj != nil || len(j.churn) > 0
	if j.snaps {
		j.snapshot(0, j.global)
	}
	j.modelSize = j.global.NumParams()
	j.flopsPerExample = 3 * j.global.FLOPs(1) // forward + ~2x backward
	j.stepsPerEpoch = (len(shards[0]) + cfg.BatchSize - 1) / cfg.BatchSize
	return j, nil
}

// Start schedules the job's first round on the kernel. The job then
// self-perpetuates: each round event schedules the next at the simulated
// instant the previous one finished, until every epoch completes.
func (j *Job) Start() {
	if j.stepsPerEpoch == 0 {
		// Degenerate empty-shard run: the historical loop still recorded
		// one (NaN) epoch-loss entry per epoch.
		for e := 0; e < j.cfg.Epochs; e++ {
			j.stats.EpochLoss = append(j.stats.EpochLoss, math.NaN())
		}
		j.done = true
		return
	}
	if j.cfg.Epochs == 0 {
		j.done = true
		return
	}
	j.actor.At(j.k.Now(), j.runRound)
}

// runRound executes one (epoch, step) training round as a kernel event and
// schedules the successor at the simulated time this one finished.
func (j *Job) runRound(float64) {
	cfg, stats := j.cfg, &j.stats
	if j.step == 0 {
		for _, wk := range j.workers {
			wk.rng.Shuffle(len(wk.shard), func(i, jj int) {
				wk.shard[i], wk.shard[jj] = wk.shard[jj], wk.shard[i]
			})
		}
		j.epochLoss, j.lossSteps = 0, 0
	}
	step := j.step
	round := j.epoch*j.stepsPerEpoch + step
	// Elastic membership transitions happen at the start of their round,
	// before crash/rejoin processing, so a joiner can still crash on
	// arrival and a leaver never computes a round it is not part of.
	for j.churnIdx < len(j.churn) && j.churn[j.churnIdx].Round <= round {
		j.applyChurn(j.churn[j.churnIdx])
		j.churnIdx++
	}
	active := j.liveWorkers(round)
	j.trackMembership(active)
	switch {
	case len(active) == 0:
		// Whole cluster down: the round idles away a restart delay.
		j.clk.advance(j.net.backoffS)
	case cfg.AveragePeriod == 1:
		roundSpan := j.trainSpan.Child("sync-round", j.clk.now())
		loss, ok := j.syncRound(active, step, round, roundSpan)
		roundSpan.End(j.clk.now())
		if ok && active[0].id == 0 && !math.IsNaN(loss) && !math.IsInf(loss, 0) {
			j.epochLoss += loss
			j.lossSteps++
		}
		if j.snaps && stats.AveragingRound%cfg.SnapshotPeriod == 0 {
			j.snapshot(round+1, active[0].net)
		}
	default:
		j.localRound(active, step, round)
		if l := active[0].lastLoss; active[0].id == 0 && !math.IsNaN(l) && !math.IsInf(l, 0) {
			j.epochLoss += l
			j.lossSteps++
		}
		globalStep := round + 1
		if globalStep%cfg.AveragePeriod == 0 {
			roundSpan := j.trainSpan.Child("avg-round", j.clk.now())
			j.averageRound(active, round)
			roundSpan.End(j.clk.now())
			if j.snaps && stats.AveragingRound%cfg.SnapshotPeriod == 0 {
				j.snapshot(round+1, active[0].net)
			}
		}
	}
	stats.Steps++
	j.ins.steps.Inc()

	j.step++
	if j.step == j.stepsPerEpoch {
		if j.lossSteps > 0 {
			stats.EpochLoss = append(stats.EpochLoss, j.epochLoss/float64(j.lossSteps))
		} else {
			stats.EpochLoss = append(stats.EpochLoss, math.NaN())
		}
		j.step = 0
		j.epoch++
	}
	if j.epoch < j.cfg.Epochs {
		j.actor.At(j.k.Now(), j.runRound)
	} else {
		j.done = true
	}
}

// applyChurn executes one elastic-membership event at the start of its
// round: a leave marks the worker absent; a join brings it back, catching
// up from the newest CRC-valid snapshot (or, when nothing restorable
// exists, from a present peer's parameters) with a cleared residual —
// membership epoch state machine: join → catch-up → active → leave.
func (j *Job) applyChurn(ev ChurnEvent) {
	wk := j.workers[ev.Worker]
	if !ev.Join {
		if !wk.absent {
			wk.absent = true
			j.stats.Leaves++
			j.ins.leaves.Inc()
		}
		return
	}
	if !wk.absent {
		return
	}
	wk.absent = false
	wk.downTo = 0
	j.stats.Joins++
	j.ins.joins.Inc()
	if _, skipped, err := j.store.Restore(wk.net); err == nil {
		j.stats.CatchUps++
		j.ins.catchups.Inc()
		j.stats.Corruptions += skipped
		j.ins.corrupts.Add(int64(skipped))
	} else {
		for _, peer := range j.workers {
			if peer != wk && !peer.absent && peer.downTo == 0 {
				wk.net.SetParamVector(peer.net.ParamVector())
				break
			}
		}
	}
	for i := range wk.residual {
		wk.residual[i] = 0
	}
}

// Done reports whether every scheduled round has executed.
func (j *Job) Done() bool { return j.done }

// Result finalises the run — consensus averaging over surviving workers,
// reputation-ledger rollup, span and gauge flushes — and returns the
// consensus model plus stats. Call it after the kernel has drained the
// job's events (Done reports true); calling again returns the same
// finalised state.
func (j *Job) Result() (*nn.Network, Stats, error) {
	if j.finalized {
		return j.global, j.stats, nil
	}
	j.finalized = true
	stats := &j.stats
	// Final consensus over the workers that are up at the end; workers
	// still down (crashed near the finish) hold stale parameters and are
	// left out, exactly as a parameter server would ignore them.
	totalRounds := j.cfg.Epochs * j.stepsPerEpoch
	var final []*worker
	for _, wk := range j.workers {
		if wk.absent {
			continue // elastically departed: holds stale parameters
		}
		if wk.downTo <= totalRounds {
			final = append(final, wk)
		}
	}
	if len(final) == 0 {
		final = j.workers
	}
	averageParams(final)
	j.global.SetParamVector(final[0].net.ParamVector())
	if j.rep != nil {
		led := j.rep.Ledger()
		stats.Quarantine = led
		stats.Quarantines = led.Quarantines()
		stats.Readmissions = led.Readmissions()
		j.ins.quarantines.Add(int64(stats.Quarantines))
		j.ins.readmissions.Add(int64(stats.Readmissions))
	}
	stats.SimSeconds = j.clk.now()
	j.trainSpan.End(stats.SimSeconds)
	j.ins.simSeconds.Set(stats.SimSeconds)
	j.ins.aggSeconds.Set(stats.AggSeconds)
	j.ins.commSeconds.Set(stats.CommSeconds)
	return j.global, j.stats, nil
}
