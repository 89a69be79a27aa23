package livedb

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dlsys/internal/fault"
	"dlsys/internal/invalid"
	"dlsys/internal/learned"
	"dlsys/internal/obs"
	"dlsys/internal/sim"
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// uniformKeys draws n distinct keys uniformly over [0, space).
func uniformKeys(seed int64, n int, space uint64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64() % space
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// scenario is one fully assembled engine + workload on a fresh kernel.
type scenario struct {
	k   *sim.Kernel
	h   *obs.Handle
	eng *Engine
	wl  *Workload
}

func newScenario(t *testing.T, seed int64, nKeys int, wcfg WorkloadConfig, ecfg Config) *scenario {
	t.Helper()
	k := sim.New()
	h := obs.NewHandle()
	ecfg.Seed = seed
	ecfg.Kernel = k
	ecfg.Obs = h
	initial := uniformKeys(seed, nKeys, 1<<44)
	eng, err := NewEngine(initial, ecfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	wcfg.Seed = seed + 1
	wl, err := NewWorkload(eng, initial, wcfg)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	return &scenario{k: k, h: h, eng: eng, wl: wl}
}

func (s *scenario) run() {
	s.eng.Start()
	s.wl.Start()
	s.k.Run()
}

// faultyDriftScenario is the workhorse: a corrupted-insert burst early, a
// cluster-drift phase with hard negatives after, sized to provoke at least
// one rollback and at least one successful post-scrub swap.
func faultyDriftScenario(t *testing.T, seed int64) *scenario {
	wcfg := WorkloadConfig{
		Ops:          2400,
		Rate:         400,
		ClusterWidth: 1 << 38,
		Phases: []Phase{
			{StartS: 0},
			{StartS: 2.0, Clusters: []uint64{1 << 40, 3 << 41}, HardNegFrac: 0.5},
		},
		Faults: fault.Config{
			Seed: seed,
			Schedule: []fault.Window{
				{Kind: fault.KindCorrupt, StartS: 0.4, EndS: 1.2, Prob: 0.2},
			},
		},
	}
	return newScenario(t, seed, 2500, wcfg, Config{})
}

func TestConfigValidation(t *testing.T) {
	var ce *invalid.Error
	if _, err := NewEngine([]uint64{1, 2, 3}, Config{}); !errors.As(err, &ce) || ce.Field != "Kernel" {
		t.Fatalf("missing kernel: got %v", err)
	}
	k := sim.New()
	if _, err := NewEngine(nil, Config{Kernel: k}); !errors.As(err, &ce) {
		t.Fatalf("empty keys: got %v", err)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"NaN MaintainEvery", Config{MaintainEvery: nan}, "MaintainEvery"},
	} {
		tc.cfg.Kernel = k
		if _, err := NewEngine([]uint64{1, 2, 3}, tc.cfg); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: got %v, want an *invalid.Error on %s", tc.name, err, tc.field)
		}
	}
	eng := must(NewEngine([]uint64{1, 2, 3}, Config{Kernel: k}))
	for _, tc := range []struct {
		name  string
		cfg   WorkloadConfig
		field string
	}{
		{"zero Ops", WorkloadConfig{}, "Ops"},
		{"NaN Rate", WorkloadConfig{Ops: 10, Rate: nan}, "Rate"},
	} {
		if _, err := NewWorkload(eng, nil, tc.cfg); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: got %v, want an *invalid.Error on %s", tc.name, err, tc.field)
		}
	}
}

// Two runs of the same seeded scenario must agree bit for bit: kernel
// execution log, maintenance ledger, metrics registry, and both stats
// structs — the replay contract every X11 cell asserts.
func TestDeterministicReplay(t *testing.T) {
	type prints struct {
		kernel, ledger, reg uint64
		stats               Stats
		wl                  WorkloadStats
	}
	runOnce := func() prints {
		s := faultyDriftScenario(t, 11)
		s.run()
		return prints{
			kernel: s.k.Fingerprint(),
			ledger: s.eng.Ledger().Fingerprint(),
			reg:    s.h.Reg.Fingerprint(),
			stats:  s.eng.Stats(),
			wl:     s.wl.Stats(),
		}
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("replay diverged:\n  run1=%+v\n  run2=%+v", a, b)
	}
	if a.kernel == 0 || a.ledger == 0 {
		t.Fatalf("degenerate fingerprints: %+v", a)
	}
}

// The robustness arc end to end: corrupted inserts poison the delta buffer,
// the first retrain's candidate fails schema validation and rolls back,
// the scrub quarantines exactly the fence violators, and once the burst is
// over a later retrain swaps cleanly and the learned tier serves again.
func TestCorruptedInsertRollbackAndRecovery(t *testing.T) {
	s := faultyDriftScenario(t, 11)
	s.run()
	st := s.eng.Stats()
	ws := s.wl.Stats()

	if ws.CorruptedSent == 0 {
		t.Fatalf("fault schedule injected nothing")
	}
	if ws.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches — acked writes were lost or wrong answers served", ws.Mismatches)
	}
	if st.Rollbacks == 0 {
		t.Fatalf("corrupted candidate was never rolled back: %+v", st)
	}
	if r, ok := s.eng.Ledger().First(EvRollback, ""); !ok || r.Reason != "schema: values outside schema range" {
		t.Fatalf("first rollback reason = %v", r)
	}
	if st.Quarantined == 0 || st.Quarantined != s.eng.QuarantineLen() {
		t.Fatalf("quarantine bookkeeping: stats=%d live=%d", st.Quarantined, s.eng.QuarantineLen())
	}
	if st.Quarantined > ws.CorruptedSent {
		t.Fatalf("quarantined %d > corrupted sent %d", st.Quarantined, ws.CorruptedSent)
	}
	if st.Swaps == 0 {
		t.Fatalf("no post-scrub retrain ever validated: %+v", st)
	}
	// The swap must come after the rollback: recovery, not luck.
	rb := must2(s.eng.Ledger().First(EvRollback, ""))
	haveLater := false
	for _, e := range s.eng.Ledger().Entries {
		if e.Kind == EvSwap && e.T > rb.T {
			haveLater = true
		}
	}
	if !haveLater {
		t.Fatalf("no swap after the rollback at t=%.3f", rb.T)
	}
}

// Availability invariant: every query is answered by exactly one ladder
// tier, and in a chaotic run every rung actually serves.
func TestFallbackLadderCoverageAndAvailability(t *testing.T) {
	s := faultyDriftScenario(t, 11)
	s.run()
	st := s.eng.Stats()

	if got, want := st.ServedTotal(), st.Queries(); got != want {
		t.Fatalf("availability hole: served %d of %d queries", got, want)
	}
	for _, tier := range []Tier{TierLearned, TierDelta, TierBTree} {
		if st.TierServed[tier] == 0 {
			t.Fatalf("tier %v never served: %+v", tier, st.TierServed)
		}
	}
	// The scan rung is reachable deterministically: probe a quarantined key.
	if s.eng.QuarantineLen() == 0 {
		t.Fatalf("no quarantined keys to probe")
	}
	found, tier := s.eng.Lookup(s.eng.quarantine[0])
	if !found || tier != TierScan {
		t.Fatalf("quarantined key: found=%v tier=%v, want true/scan", found, tier)
	}
}

// Satellite 3 (engine half): under hard-negative drift the maintenance
// actor must trip the bloom-fpr trigger after the measured FPR crosses
// FPRTriggerFactor·target but before it reaches 2·target.
func TestFPRTriggerFiresBeforeDoubleTarget(t *testing.T) {
	// Clustered keys give the bloom classifier structure to learn — and
	// hard negatives (one off a present key, inside a dense span) the means
	// to break it. The workload's uniform absent probes are capped at the
	// max present key so they match the filter's training negatives; the
	// drift phase then shifts absent traffic toward hard negatives.
	k := sim.New()
	h := obs.NewHandle()
	initial := learned.ClusteredKeys(rand.New(rand.NewSource(5)), 2500, 4, 1<<44)
	eng := must(NewEngine(initial, Config{
		Seed:          5,
		Kernel:        k,
		Obs:           h,
		MaintainEvery: 0.05, // tight monitoring so the trigger fires near the crossing
	}))
	wl := must(NewWorkload(eng, initial, WorkloadConfig{
		Seed:  6,
		Ops:   2600,
		Rate:  400,
		Space: initial[len(initial)-1],
		Phases: []Phase{
			{StartS: 0},
			{StartS: 2.2, HardNegFrac: 0.6}, // drift begins after the trigger arms
		},
	}))
	wl.insertFrac, wl.rangeFrac = 0, 0 // lookup-only: isolate the FPR trigger
	s := &scenario{k: k, h: h, eng: eng, wl: wl}
	s.run()

	e, ok := s.eng.Ledger().First(EvRetrainStart, "bloom-fpr")
	if !ok {
		t.Fatalf("hard-negative drift never tripped the bloom-fpr trigger; ledger:\n%v", s.eng.Ledger().Entries)
	}
	if e.T < 2.2 {
		t.Fatalf("trigger at t=%.2f predates the drift phase — base-rate false alarm", e.T)
	}
	target := targetFPR
	if e.Value < fprTriggerFactor*target {
		t.Fatalf("trigger fired below threshold: fpr=%.4f", e.Value)
	}
	if e.Value >= 2*target {
		t.Fatalf("trigger too late: fpr=%.4f >= 2x target %.4f", e.Value, 2*target)
	}
	if s.wl.Stats().Mismatches != 0 {
		t.Fatalf("mismatches during drift: %d", s.wl.Stats().Mismatches)
	}
}

// Rollback restores the newest CRC-verifiable snapshot of the current
// version; corrupted copies are skipped, stale-version copies are ignored,
// and with nothing restorable the learned tier stays down while the B-tree
// rung keeps answering — then the no-index trigger rebuilds it.
func TestSnapshotCorruptionFallsBackDownTheRing(t *testing.T) {
	k := sim.New()
	keys := uniformKeys(3, 1200, 1<<44)
	eng := must(NewEngine(keys, Config{Kernel: k, Seed: 3}))

	// A second same-version snapshot, then corrupt it: rollback must skip
	// it and restore the older copy.
	eng.takeSnapshot()
	eng.snaps[len(eng.snaps)-1].snap.Payload[3] ^= 0xff
	eng.rollback(k.Now(), "test-corrupt-newest")
	if eng.rmi == nil {
		t.Fatalf("older verifiable snapshot not restored")
	}
	if eng.stats.SnapshotsSkipped != 1 {
		t.Fatalf("SnapshotsSkipped=%d, want 1", eng.stats.SnapshotsSkipped)
	}

	// Stale-version snapshots must never be restored: wrong coefficients
	// for the current array. Corrupt every same-version copy and plant a
	// healthy stale one.
	for i := range eng.snaps {
		// A fresh byte: the copy corrupted above must stay corrupt.
		eng.snaps[i].snap.Payload[5] ^= 0xff
	}
	eng.takeSnapshot() // healthy, but...
	eng.snaps[len(eng.snaps)-1].version = eng.mainVersion - 1
	eng.rollback(k.Now(), "test-corrupt-all")
	if eng.rmi != nil {
		t.Fatalf("restored from a corrupt or stale snapshot")
	}

	// Ladder still answers from the B-tree rung, exactly.
	found, tier := eng.Lookup(keys[7])
	if !found || tier != TierBTree {
		t.Fatalf("btree fallback: found=%v tier=%v", found, tier)
	}
	if found, _ := eng.Lookup(uint64(1)<<43 + 12345); found {
		t.Fatalf("false positive from btree fallback")
	}

	// After cooldown, the no-index trigger rebuilds the learned tier.
	eng.Start()
	k.RunUntil(k.Now() + 5)
	if eng.rmi == nil || eng.State() != StateServing {
		t.Fatalf("no-index retrain did not recover: state=%v", eng.State())
	}
	if _, ok := eng.Ledger().First(EvRetrainStart, "no-index"); !ok {
		t.Fatalf("no-index trigger never ledgered")
	}
	if found, tier := eng.Lookup(keys[7]); !found || tier != TierLearned {
		t.Fatalf("learned tier not back: found=%v tier=%v", found, tier)
	}
	eng.Stop()
	k.Run()
}

// During a retrain window queries degrade to the B-tree rung — correct
// answers, zero unavailability — and inserts land in the pending buffer so
// the frozen candidate set stays stable.
func TestGracefulDegradationDuringRetrain(t *testing.T) {
	k := sim.New()
	keys := uniformKeys(9, 800, 1<<44)
	eng := must(NewEngine(keys, Config{Kernel: k, Seed: 9}))
	eng.startRetrain(k.Now(), "test", 0)

	if eng.State() != StateRetraining {
		t.Fatalf("state=%v", eng.State())
	}
	if found, tier := eng.Lookup(keys[100]); !found || tier != TierBTree {
		t.Fatalf("retrain-window lookup: found=%v tier=%v", found, tier)
	}
	stored := eng.Insert([]uint64{42})
	if len(stored) != 1 || len(eng.pending) != 1 || len(eng.delta) != 0 {
		t.Fatalf("insert during retrain: stored=%v pending=%d delta=%d", stored, len(eng.pending), len(eng.delta))
	}
	if found, tier := eng.Lookup(42); !found || tier != TierDelta {
		t.Fatalf("pending key unserved: found=%v tier=%v", found, tier)
	}
	k.Run() // drains the scheduled finishRetrain
	if eng.State() != StateServing || eng.stats.Swaps != 1 {
		t.Fatalf("clean candidate did not swap: state=%v stats=%+v", eng.State(), eng.stats)
	}
	// The pending key became the new delta and the swapped index serves.
	if found, tier := eng.Lookup(42); !found || tier != TierDelta {
		t.Fatalf("post-swap pending key: found=%v tier=%v", found, tier)
	}
	if found, tier := eng.Lookup(keys[100]); !found || tier != TierLearned {
		t.Fatalf("post-swap lookup: found=%v tier=%v", found, tier)
	}
}

// A phase skewed past the declared window contract: each window-cap
// rollback doubles the cap (ledgered in the entry's Value), so the engine
// converges to a serveable contract instead of rejecting candidates forever
// while the delta buffer grows without bound.
func TestWindowCapEscalatesUntilSkewedCandidateServes(t *testing.T) {
	k := sim.New()
	keys := uniformKeys(21, 2000, 1<<44)
	eng := must(NewEngine(keys, Config{Kernel: k, Seed: 21}))
	cap0 := eng.windowCap

	// A dense, narrow cluster — far under the RMI root's cell width, so the
	// candidate's search window exceeds any small cap no matter the leaves.
	for i := 0; i < 1500; i++ {
		insertSorted(&eng.delta, (1<<40)+uint64(i)*97)
		eng.bt.Insert((1<<40)+uint64(i)*97, 0)
	}
	eng.Start()
	deadline := 0.0
	for eng.stats.Swaps == 0 {
		deadline += 5
		if deadline > 60 {
			t.Fatalf("never swapped; ledger:\n%v", eng.Ledger().Entries)
		}
		k.RunUntil(deadline)
	}
	eng.Stop()
	k.Run()

	rb, ok := eng.Ledger().First(EvRollback, "window-cap")
	if !ok {
		t.Fatalf("skewed candidate never hit the cap; ledger:\n%v", eng.Ledger().Entries)
	}
	if int(rb.Value) != 2*cap0 {
		t.Fatalf("first escalation: cap=%v, want %d", rb.Value, 2*cap0)
	}
	if eng.windowCap <= cap0 {
		t.Fatalf("cap did not escalate: %d <= %d", eng.windowCap, cap0)
	}
	// The installed index honors the (renegotiated) declared contract.
	if eng.declaredWin > eng.windowCap {
		t.Fatalf("declared window %d exceeds cap %d", eng.declaredWin, eng.windowCap)
	}
	if found, tier := eng.Lookup((1 << 40) + 97); !found || tier != TierLearned {
		t.Fatalf("cluster key after swap: found=%v tier=%v", found, tier)
	}
}

// Exact reconciliation: every obs counter equals its Stats mirror, and the
// ledger's event counts equal the maintenance counters — no drift between
// the three books.
func TestCountersReconcileWithStatsAndLedger(t *testing.T) {
	s := faultyDriftScenario(t, 11)
	s.run()
	if err := s.eng.Reconcile(); err != nil {
		t.Fatal(err)
	}
	s.h.Counter("livedb.swaps").Inc()
	if err := s.eng.Reconcile(); err == nil || !strings.Contains(err.Error(), "livedb.swaps=") {
		t.Fatalf("a bumped livedb.swaps was not named: %v", err)
	}
}

// The live crossover: after at least one swap, the learned tier's measured
// service time beats the modeled B-tree alternative for the same queries,
// and its resident memory is a fraction of the B-tree's.
func TestLearnedWinReattainedAfterRetrain(t *testing.T) {
	s := faultyDriftScenario(t, 11)
	s.run()
	if s.eng.Stats().Swaps == 0 {
		t.Fatalf("scenario produced no swap")
	}
	// The final swap can land at the tail of the run; drive live probes at
	// the freshly installed index so the post-retrain sample is non-empty.
	if s.eng.State() != StateServing {
		t.Fatalf("engine not serving at end of run: %v", s.eng.State())
	}
	for i := 0; i < len(s.eng.main); i += 37 {
		s.eng.Lookup(s.eng.main[i])
	}
	learnedS, btreeS, n := s.eng.LearnedWin()
	if n == 0 {
		t.Fatalf("no learned-tier lookups since the last swap")
	}
	if learnedS >= btreeS {
		t.Fatalf("learned tier lost the crossover after retrain: %.3g >= %.3g over %d lookups", learnedS, btreeS, n)
	}
	if lm, bm := s.eng.LearnedMemoryBytes(), s.eng.BTreeMemoryBytes(); lm*4 > bm {
		t.Fatalf("learned memory %d not a clear win over btree %d", lm, bm)
	}
}

func must2(e Entry, ok bool) Entry {
	if !ok {
		panic("missing ledger entry")
	}
	return e
}
