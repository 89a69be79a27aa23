package guard

import (
	"math"

	"dlsys/internal/checkpoint"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/tensor"
)

// Mode selects whether detections are acted upon.
type Mode int

// Guard modes.
const (
	// Enforce detects and remediates: skip, clip, back off, roll back.
	Enforce Mode = iota
	// Observe detects and records incidents but never intervenes. An
	// Observe-mode trainer follows the exact same data and injection path
	// as an Enforce-mode one, which makes it the fair "unguarded" baseline
	// for self-healing experiments.
	Observe
)

// Policy configures a guarded trainer: whether it intervenes, what input
// it accepts and where it reports. The detection thresholds and the
// remediation escalation are the constants below.
type Policy struct {
	Mode   Mode
	Schema *BatchSchema // nil disables input validation

	// Obs, when non-nil, receives live incident/remediation counters
	// (mirroring the Ledger summary counters exactly) and a span per
	// rollback stamped with the global step. Nil disables instrumentation.
	Obs *obs.Handle
}

// Detection thresholds.
const (
	lossSpikeZ     float64 = 8    // z-score above which a loss is a spike
	emaDecay       float64 = 0.95 // loss EMA decay
	warmupSteps            = 8    // healthy steps before spike detection arms
	normWindowSize         = 16   // rolling window of healthy gradient norms
	explodeFactor  float64 = 10   // norm > factor·median ⇒ explosion
	explodeMinNorm float64 = 1    // norms below this floor are never explosions
)

// Remediation and checkpointing.
const (
	lrBackoff     float64 = 0.5  // LR multiplier on a loss spike
	minLR         float64 = 1e-5 // floor under backoff/damping
	dampFactor    float64 = 0.7  // LR multiplier after a rollback
	rollbackAfter         = 3    // consecutive bad steps before rollback
	snapshotEvery         = 10   // healthy steps between snapshots
	keepSnapshots         = 3    // retained snapshots
)

// Trainer wraps an nn.Trainer with self-healing supervision. Each step runs
// detect → remediate → (maybe) update, and every intervention lands in the
// incident ledger.
type Trainer struct {
	Inner  *nn.Trainer
	Policy Policy

	ledger    Ledger
	obs       *guardObs
	store     *checkpoint.Store
	lossMon   lossMonitor
	normWin   *normWindow
	baseLR    float64
	consecBad int
	step      int
	sinceSnap int
	paramBuf  []float64 // reused for post-update finiteness scans
}

// New wraps a trainer in a self-healing supervisor. An initial snapshot is
// taken immediately so rollback is always possible, and the optimizer's
// current LR becomes the base rate that backoff and damping operate on.
func New(inner *nn.Trainer, p Policy) *Trainer {
	g := &Trainer{
		Inner:   inner,
		Policy:  p,
		obs:     newGuardObs(p.Obs),
		store:   checkpoint.NewStore(keepSnapshots),
		lossMon: lossMonitor{decay: emaDecay, warmup: warmupSteps},
		normWin: newNormWindow(normWindowSize),
		baseLR:  inner.Opt.LR(),
	}
	g.store.Put(checkpoint.TakeSnapshot(0, inner.Net))
	return g
}

// Ledger returns the incident audit trail.
func (g *Trainer) Ledger() *Ledger { return &g.ledger }

// BaseLR returns the current base learning rate (after any backoff/damping).
func (g *Trainer) BaseLR() float64 { return g.baseLR }

// Snapshot forces a checkpoint of the current parameters at the current step.
func (g *Trainer) Snapshot() { g.store.Put(checkpoint.TakeSnapshot(g.step, g.Inner.Net)) }

// Step runs one guarded step at the base learning rate. It returns the batch
// loss as computed (NaN/Inf included, so callers see the truth) and whether
// the parameter update was applied.
func (g *Trainer) Step(bx, by *tensor.Tensor) (loss float64, applied bool) {
	return g.StepLR(bx, by, 1)
}

// StepLR is Step with a transient learning-rate multiplier for this step
// only — the injection point for LR-spike faults. The guard's base LR
// bookkeeping (backoff, damping) is unaffected by the multiplier.
func (g *Trainer) StepLR(bx, by *tensor.Tensor, lrFactor float64) (loss float64, applied bool) {
	step := g.step
	g.step++
	enforce := g.Policy.Mode == Enforce
	g.Inner.Opt.SetLR(g.baseLR * lrFactor)

	// 1. Input validation: bad batches are discarded before any compute.
	if s := g.Policy.Schema; s != nil {
		_, ok, drifted := s.Check(bx)
		if !ok {
			if enforce {
				g.bad(step, KindBadBatch, ActionSkipBatch, 0)
				return math.NaN(), false
			}
			g.record(Incident{Step: step, Kind: KindBadBatch, Action: ActionObserved})
		} else if drifted {
			// Drift is a flag in both modes: the batch is usable, but the
			// shift is worth surfacing to operators.
			g.record(Incident{Step: step, Kind: KindInputDrift, Action: ActionFlagged, Value: bx.Mean()})
		}
	}

	// 2. Forward/backward without touching parameters.
	loss = g.Inner.ComputeGrad(bx, by)
	grads := g.Inner.Net.GradVector()
	norm, gradsFinite := tensor.Norm2Finite(grads)
	lossFinite := !math.IsNaN(loss) && !math.IsInf(loss, 0)

	// 3. Detect, in severity order; remediate when enforcing.
	switch {
	case !lossFinite || !gradsFinite:
		kind := KindNonFiniteLoss
		val := loss
		if lossFinite {
			kind = KindNonFiniteGrad
			val = 0
		}
		if !enforce {
			g.record(Incident{Step: step, Kind: kind, Action: ActionObserved, Value: val})
			break // fall through to the unguarded update
		}
		g.bad(step, kind, ActionSkipBatch, val)
		return loss, false

	case g.lossSpike(loss):
		z := g.lossMon.zscore(loss)
		if !enforce {
			g.record(Incident{Step: step, Kind: KindLossSpike, Action: ActionObserved, Value: z})
			break
		}
		// A spiking loss means the model is being driven somewhere bad:
		// discard the step and take smaller ones from here on.
		g.baseLR = math.Max(minLR, g.baseLR*lrBackoff)
		g.bad(step, KindLossSpike, ActionBackoffLR, z)
		return loss, false

	case g.normWin.ready() && gradExplosion(norm, g.normWin.median(), explodeFactor, explodeMinNorm):
		if !enforce {
			g.record(Incident{Step: step, Kind: KindGradExplosion, Action: ActionObserved, Value: norm})
			break
		}
		// The direction is usable, the magnitude is not: rescale the
		// gradient to the healthy median norm and proceed.
		target := g.normWin.median()
		scale := target / norm
		for i := range grads {
			grads[i] *= scale
		}
		g.Inner.Net.SetGradVector(grads)
		g.record(Incident{Step: step, Kind: KindGradExplosion, Action: ActionClipGrad, Value: norm})
		g.applyHealthy(step, loss, target)
		return loss, true
	}

	if !enforce {
		// Observe mode always applies — it exists to show what an
		// unguarded trainer would have done. Monitors still only ingest
		// finite observations so the detectors keep functioning.
		g.Inner.ApplyUpdate()
		if lossFinite && gradsFinite {
			g.lossMon.observe(loss)
			g.normWin.add(norm)
		}
		return loss, true
	}

	g.applyHealthy(step, loss, norm)

	// 4. Post-update parameter scan: an update can overflow even from
	// finite gradients (e.g. under a spiked LR). Poisoned parameters can
	// only be fixed by rollback — skipping future batches won't un-NaN them.
	g.paramBuf = g.Inner.Net.ParamVectorInto(g.paramBuf)
	if !tensor.AllFinite(g.paramBuf) {
		g.rollback(step, KindNonFiniteParam, 0)
		return loss, false
	}
	return loss, true
}

// record lands an incident in the ledger and mirrors it into the run's
// metrics — the single chokepoint keeping the two reconciled exactly.
func (g *Trainer) record(in Incident) {
	g.ledger.record(in)
	g.obs.record(in)
}

// lossSpike reports whether the loss is a finite spike vs the EMA baseline.
func (g *Trainer) lossSpike(loss float64) bool {
	return g.lossMon.zscore(loss) > lossSpikeZ
}

// applyHealthy applies the pending update, feeds the monitors, resets the
// escalation counter, and takes a periodic snapshot.
func (g *Trainer) applyHealthy(step int, loss, norm float64) {
	g.Inner.ApplyUpdate()
	g.lossMon.observe(loss)
	g.normWin.add(norm)
	g.consecBad = 0
	g.sinceSnap++
	if g.sinceSnap >= snapshotEvery {
		g.store.Put(checkpoint.TakeSnapshot(step, g.Inner.Net))
		g.sinceSnap = 0
	}
}

// bad records a remediated-but-skipped step and escalates to rollback after
// rollbackAfter consecutive bad steps.
func (g *Trainer) bad(step int, kind IncidentKind, action Action, val float64) {
	g.consecBad++
	if g.consecBad >= rollbackAfter {
		g.rollback(step, kind, val)
		return
	}
	g.record(Incident{Step: step, Kind: kind, Action: action, Value: val})
}

// rollback restores the newest verifiable snapshot, resets stateful
// optimizer moments, damps the base LR, and clears the detection baselines
// (post-rollback dynamics differ from pre-fault dynamics, so stale baselines
// would mis-fire).
func (g *Trainer) rollback(step int, kind IncidentKind, val float64) {
	if _, _, err := g.store.Restore(g.Inner.Net); err != nil {
		// No verifiable snapshot — record the attempt; training continues
		// from current parameters, which is the best remaining option.
		g.record(Incident{Step: step, Kind: kind, Action: ActionSkipBatch, Value: val})
		g.consecBad = 0
		return
	}
	if r, ok := g.Inner.Opt.(nn.StateResetter); ok {
		r.ResetState()
	}
	g.baseLR = math.Max(minLR, g.baseLR*dampFactor)
	g.lossMon = lossMonitor{decay: emaDecay, warmup: warmupSteps}
	g.normWin = newNormWindow(normWindowSize)
	g.consecBad = 0
	g.record(Incident{Step: step, Kind: kind, Action: ActionRollback, Value: val})
}

// FitConfig controls a guarded training run.
type FitConfig struct {
	Epochs    int
	BatchSize int
	// Inject, when non-nil, may poison the gathered batch in place before
	// the step runs — the hook fault-injection experiments use. The batch
	// is the trainer's reused buffer, valid until the next step's gather.
	Inject func(step int, bx, by *tensor.Tensor)
	// LRSpike, when non-nil, returns a transient learning-rate multiplier
	// for the step (1 = no fault).
	LRSpike func(step int) float64
}

// Fit trains like nn.Trainer.Fit but through the guarded step. Epoch losses
// average only finite step losses; Steps counts applied updates.
func (g *Trainer) Fit(x, y *tensor.Tensor, cfg FitConfig) nn.TrainStats {
	batches := nn.NewBatches(g.Inner.RNG, x.Dim(0), cfg.BatchSize)
	bs := int64(batches.Size())
	var stats nn.TrainStats
	var bx, by *tensor.Tensor // batch buffers; each gather overwrites what Inject poisoned
	flopsPerStep := 3 * g.Inner.Net.FLOPs(batches.Size())
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		finiteBatches := 0
		batches.Epoch(func(idx []int) {
			bx, by = nn.GatherBatchInto(bx, by, x, y, idx)
			if cfg.Inject != nil {
				cfg.Inject(g.step, bx, by)
			}
			lrFactor := 1.0
			if cfg.LRSpike != nil {
				lrFactor = cfg.LRSpike(g.step)
			}
			loss, applied := g.StepLR(bx, by, lrFactor)
			if !math.IsNaN(loss) && !math.IsInf(loss, 0) {
				epochLoss += loss
				finiteBatches++
			}
			if applied {
				stats.Steps++
			}
			stats.FLOPs += flopsPerStep * int64(len(idx)) / bs
			stats.Examples += int64(len(idx))
		})
		if finiteBatches > 0 {
			epochLoss /= float64(finiteBatches)
		} else {
			epochLoss = math.NaN()
		}
		stats.EpochLoss = append(stats.EpochLoss, epochLoss)
	}
	return stats
}
