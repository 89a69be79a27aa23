package livedb

import (
	"dlsys/internal/checkpoint"
	"dlsys/internal/db"
	"dlsys/internal/guard"
	"dlsys/internal/learned"
	"dlsys/internal/tensor"
)

// This file is the maintenance actor: the monitoring tick, the retrain
// state machine (trigger → candidate build → guarded validation → atomic
// swap | rollback), the version-tagged snapshot ring, and the post-rollback
// scrub that moves schema-violating keys into quarantine.

// keySchema infers a guard.BatchSchema from the initial key population.
// Keys are presented as a [n,1] feature tensor; the schema's widened
// [Min, Max] range doubles as the scrub fence — corrupted keys (high bits
// flipped in flight) land far outside it.
func keySchema(keys []uint64, driftSigma float64) *guard.BatchSchema {
	return guard.NewBatchSchema(keysTensor(keys), driftSigma)
}

func keysTensor(keys []uint64) *tensor.Tensor {
	t := tensor.New(len(keys), 1)
	for i, k := range keys {
		t.Data[i] = float64(k)
	}
	return t
}

// tick is one monitoring window: finish any elapsed cooldown, refresh the
// snapshot ring and gauges, then — when serving — check the retrain
// triggers in severity order.
func (e *Engine) tick(now float64) {
	if e.state == StateCooldown && now >= e.cooldownUntil {
		e.state = StateServing
		e.stats.Cooldowns++
		e.h.Counter("livedb.cooldowns").Inc()
		e.ledger.add(Entry{T: now, Kind: EvCooldownEnd, Reason: "elapsed"})
	}
	e.ticks++
	if e.state == StateServing && e.rmi != nil && e.ticks%snapshotEvery == 0 {
		// Re-snapshot the active index periodically so the ring holds
		// several same-version copies — CRC corruption of one snapshot then
		// degrades to an older copy instead of to the B-tree-only ladder.
		e.takeSnapshot()
	}

	deltaFrac := float64(len(e.delta)+len(e.pending)) / float64(len(e.main))
	e.h.Gauge("livedb.delta_fraction").Set(deltaFrac)
	fpr, probes := e.liveFPR()
	e.h.Gauge("livedb.live_fpr").Set(fpr)
	e.h.Gauge("livedb.learned_memory_bytes").Set(float64(e.LearnedMemoryBytes()))

	degraded := e.winDegraded
	e.winDegraded = 0

	if e.state != StateServing {
		return
	}
	switch {
	case e.rmi == nil:
		// Cooldown expired with no restorable snapshot: rebuild from live
		// data — the ladder has been serving from the B-tree rung.
		e.startRetrain(now, "no-index", 0)
	case float64(len(e.delta)) >= rebuildFraction*float64(len(e.main))+1:
		e.startRetrain(now, "delta-fraction", deltaFrac)
	case probes >= minFPRProbes && fpr >= fprTriggerFactor*targetFPR:
		e.startRetrain(now, "bloom-fpr", fpr)
	case degraded > 0:
		e.startRetrain(now, "degraded-probe", float64(degraded))
	}
}

// liveFPR is the measured false-positive rate of the active bloom filter
// over the negative probes observed since it was built.
func (e *Engine) liveFPR() (fpr float64, probes int) {
	probes = e.cumFP + e.cumTN
	if probes == 0 {
		return 0, 0
	}
	return float64(e.cumFP) / float64(probes), probes
}

// startRetrain freezes main ∪ delta as the candidate's key set and moves to
// StateRetraining; inserts arriving during the build go to the pending
// buffer so the frozen set (and hence validation) stays stable. Point
// queries degrade to the B-tree rung until the swap or rollback.
func (e *Engine) startRetrain(now float64, reason string, value float64) {
	e.state = StateRetraining
	e.frozen = mergeSorted(e.main, e.delta)
	e.stats.Retrains++
	e.h.Counter("livedb.retrains").Inc()
	e.ledger.add(Entry{T: now, Kind: EvRetrainStart, Reason: reason, N: len(e.frozen), Value: value})
	e.k.Actor("livedb-maint").After(e.cfg.RetrainS, e.finishRetrain)
}

// finishRetrain builds the candidate index over the frozen key set and
// validates it end to end before the swap: the guard schema over the keys
// (corrupted inserts put outliers in the frozen set), the search-window
// cap, and a held-out probe sweep. Any failure rolls back.
func (e *Engine) finishRetrain(now float64) {
	cand, err := learned.BuildRMI(e.frozen, leaves)
	if err != nil {
		// Unreachable: frozen ⊇ the non-empty initial set and leaves is
		// positive — but a rollback is the safe answer regardless.
		e.rollback(now, "build: "+err.Error())
		return
	}
	reason, ok, drifted := e.schema.Check(keysTensor(e.frozen))
	if !ok {
		e.rollback(now, "schema: "+reason)
		return
	}
	if w := cand.MaxSearchWindow(); w > e.windowCap {
		e.rollback(now, "window-cap")
		return
	}
	for i := 0; i < len(e.frozen); i += 17 {
		if _, found, _, deg := cand.Probe(e.frozen, e.frozen[i]); !found || deg {
			e.rollback(now, "heldout-probe")
			return
		}
	}
	if drifted {
		// The candidate is healthy but its key distribution has shifted from
		// the reference — flag it for operators, serve it anyway.
		e.stats.DriftFlags++
		e.h.Counter("livedb.drift_flags").Inc()
	}
	e.swap(now, cand)
}

// swap atomically installs the validated candidate: the frozen set becomes
// the model-indexed array, pending inserts become the new delta, the bloom
// filter is rebuilt over the new main, and the crossover/FPR accumulators
// restart so post-retrain wins are measured live, not inherited.
func (e *Engine) swap(now float64, cand *learned.RMI) {
	e.main = e.frozen
	e.frozen = nil
	e.mainVersion++
	e.rmi = cand
	e.declaredWin = cand.MaxSearchWindow()
	e.delta = e.pending
	e.pending = nil
	// Re-derive the window cap from the installed index: escalations
	// forced by a skewed phase decay back once a candidate with a tight
	// window swaps in.
	e.windowCap = windowCapFor(e.declaredWin)
	e.lb = e.buildBloom(e.main)
	e.cumFP, e.cumTN = 0, 0
	e.learnedServeS, e.btreeAltS, e.learnedSince = 0, 0, 0
	e.takeSnapshot()
	e.state = StateServing
	e.stats.Swaps++
	e.h.Counter("livedb.swaps").Inc()
	e.ledger.add(Entry{T: now, Kind: EvSwap, Reason: "validated", N: len(e.main), Value: float64(e.declaredWin)})
}

// rollback rejects the candidate: restore the newest CRC-verifiable
// snapshot of the *current* main's index (version-matched — an older
// version's coefficients would disagree with the array), scrub the buffers
// against the schema fence, rebuild the B-tree without the quarantined
// keys, and enter cooldown. With no restorable snapshot the learned tier
// stays down and the B-tree rung keeps serving — degraded, never dark.
func (e *Engine) rollback(now float64, reason string) {
	e.rmi = nil
	skipped := 0
	for i := len(e.snaps) - 1; i >= 0; i-- {
		vs := e.snaps[i]
		if vs.version != e.mainVersion {
			continue
		}
		restored, err := restoreRMI(vs.snap)
		if err != nil {
			skipped++
			e.stats.SnapshotsSkipped++
			e.h.Counter("livedb.snapshots_skipped").Inc()
			continue
		}
		e.rmi = restored
		e.declaredWin = restored.MaxSearchWindow()
		break
	}

	// A window-cap rejection means the live distribution is genuinely more
	// skewed than the declared contract allows. Retrying at the same cap
	// would reject forever while the delta buffer grows without bound, so
	// the cap escalates — doubled, bounded by the key count, and recorded in
	// the rollback entry's Value so the renegotiation is auditable. The next
	// clean swap re-derives a tight cap from the index it installs.
	rollbackValue := float64(skipped)
	if reason == "window-cap" {
		e.windowCap *= 2
		if e.windowCap > len(e.main) {
			e.windowCap = len(e.main)
		}
		rollbackValue = float64(e.windowCap)
	}

	// Scrub: acked inserts stay queryable — clean ones return to the delta
	// buffer, fence violators move to the quarantine rung.
	merged := mergeSorted(e.delta, e.pending)
	clean := merged[:0]
	var quarantined []uint64
	for _, k := range merged {
		if f := float64(k); f < e.schema.Min || f > e.schema.Max {
			quarantined = append(quarantined, k)
		} else {
			clean = append(clean, k)
		}
	}
	e.delta = clean
	e.pending = nil
	e.frozen = nil
	if len(quarantined) > 0 {
		e.quarantine = mergeSorted(e.quarantine, quarantined)
		e.stats.Quarantined += len(quarantined)
		e.h.Counter("livedb.quarantined").Add(int64(len(quarantined)))
	}
	e.bt = db.BulkLoadBTree(mergeSorted(e.main, e.delta))

	e.stats.Rollbacks++
	e.h.Counter("livedb.rollbacks").Inc()
	e.ledger.add(Entry{T: now, Kind: EvRollback, Reason: reason, N: len(quarantined), Value: rollbackValue})
	e.state = StateCooldown
	e.cooldownUntil = now + e.cfg.CooldownS
}

// takeSnapshot CRCs the active index's coefficient vector into the ring,
// tagged with the main array version it belongs to.
func (e *Engine) takeSnapshot() {
	s := checkpoint.SnapshotVector(e.ticks, e.rmi.Coeffs())
	e.snaps = append(e.snaps, versionedSnap{version: e.mainVersion, snap: s})
	if len(e.snaps) > snapshots {
		e.snaps = e.snaps[len(e.snaps)-snapshots:]
	}
	e.stats.Snapshots++
	e.h.Counter("livedb.snapshots").Inc()
}

// restoreRMI verifies a snapshot's CRC and decodes it back into an index.
func restoreRMI(s checkpoint.Snapshot) (*learned.RMI, error) {
	coeffs, err := s.Params()
	if err != nil {
		return nil, err
	}
	return learned.RMIFromCoeffs(coeffs)
}
