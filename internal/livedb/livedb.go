// Package livedb is the deterministic online index-maintenance engine: the
// learned database components (RMI, learned Bloom filter) and their
// classical baselines (B-tree, sorted arrays) composed into one live,
// self-healing subsystem on the shared simulation kernel. A workload drives
// interleaved lookups, range scans, and inserts whose key distribution
// drifts on a schedule and whose insert stream suffers fault-injected
// in-flight corruption; a maintenance actor watches per-window index health
// (learned-Bloom measured FPR, delta-buffer growth, degraded probes) and
// retrains online, guarded end to end: candidate indexes are validated —
// guard.BatchSchema over the merged key set, a held-out probe sweep, and a
// search-window cap — before an atomic swap, regressions roll back to the
// last CRC-verifiable coefficient snapshot, and throughout every query is
// answered by some tier of the fallback ladder
//
//	learned RMI → delta buffer → B-tree → quarantine scan
//
// with zero unavailability. Every maintenance event lands in a fingerprinted
// ledger that must reconcile exactly with the engine's obs counters, and
// the whole scenario replays bit-identically under the same seeds.
package livedb

import (
	"math"
	"math/rand"
	"sort"

	"dlsys/internal/checkpoint"
	"dlsys/internal/data"
	"dlsys/internal/db"
	"dlsys/internal/guard"
	"dlsys/internal/invalid"
	"dlsys/internal/learned"
	"dlsys/internal/obs"
	"dlsys/internal/sim"
)

// Tier identifies which rung of the fallback ladder answered a query.
type Tier uint8

// Ladder tiers, fastest first. Every query is attributed to exactly one.
const (
	TierLearned Tier = iota // bloom + RMI over the model-indexed array
	TierDelta               // sorted buffer of not-yet-merged inserts
	TierBTree               // synchronously maintained classical index
	TierScan                // scan of quarantined (scrubbed) keys
	tierEnd
)

// NumTiers is the number of ladder tiers.
const NumTiers = int(tierEnd)

// String names the tier for metrics and tables.
func (t Tier) String() string {
	switch t {
	case TierLearned:
		return "learned"
	case TierDelta:
		return "delta"
	case TierBTree:
		return "btree"
	case TierScan:
		return "scan"
	}
	return "unknown"
}

// State is the maintenance state machine's position.
type State uint8

// Maintenance states.
const (
	// StateServing: the learned tier is online and monitored.
	StateServing State = iota
	// StateRetraining: a candidate is building; the learned tier is offline
	// and point queries degrade to the B-tree rung.
	StateRetraining
	// StateCooldown: a rollback just happened; the ladder keeps serving from
	// the B-tree rung for a distrust window before the learned tier returns.
	StateCooldown
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateRetraining:
		return "retraining"
	case StateCooldown:
		return "cooldown"
	}
	return "unknown"
}

// Config parameterizes the engine. Zero fields take the documented
// defaults; Kernel is required.
type Config struct {
	Seed int64

	// Timing, in simulated seconds.
	MaintainEvery float64 // monitoring window (default 0.25)
	RetrainS      float64 // candidate build duration (default 0.5)
	CooldownS     float64 // post-rollback distrust window (default 0.3)

	Kernel *sim.Kernel // required: the shared clock and event loop
	Obs    *obs.Handle // optional instrumentation
}

// The index shape: RMI second-level models, the learned Bloom filter's
// build-time FPR target, and its classifier's hidden width and training
// epochs (the filter is rebuilt at every swap, so builds must stay cheap).
const (
	leaves              = 64
	targetFPR   float64 = 0.05
	bloomHidden         = 8
	bloomEpochs         = 12
)

// The maintenance policy.
const (
	// rebuildFraction: retrain when the delta buffer reaches this fraction
	// of the model-indexed array, +1.
	rebuildFraction float64 = 0.08
	// fprTriggerFactor: retrain when the measured live FPR reaches this
	// multiple of targetFPR, strictly inside the 2x budget the
	// degradation tests assert.
	fprTriggerFactor float64 = 1.5
	// minFPRProbes: negative probes before the FPR trigger arms.
	minFPRProbes = 200
	// snapshots are retained for rollback; a fresh snapshot of the active
	// index is taken every snapshotEvery maintenance windows and at every
	// swap.
	snapshots     = 3
	snapshotEvery = 4
	// driftSigma is the guard schema's drift flag, in standard deviations.
	driftSigma float64 = 3
)

// windowCapFor is the largest max search window a candidate may have,
// given the active index's validated window: 4x that window, at least 64.
func windowCapFor(declaredWin int) int { return max(4*declaredWin, 64) }

func (c Config) withDefaults() Config {
	if c.MaintainEvery == 0 {
		c.MaintainEvery = 0.25
	}
	if c.RetrainS == 0 {
		c.RetrainS = 0.5
	}
	if c.CooldownS == 0 {
		c.CooldownS = 0.3
	}
	return c
}

// validate rejects incoherent configurations with a typed *invalid.Error:
// NaN and ±Inf first, then out-of-range values.
func (c Config) validate() error {
	if err := invalid.Finite("livedb", invalid.F("MaintainEvery", c.MaintainEvery),
		invalid.F("RetrainS", c.RetrainS), invalid.F("CooldownS", c.CooldownS)); err != nil {
		return err
	}
	switch {
	case c.Kernel == nil:
		return invalid.New("livedb", "Kernel", "is required")
	case c.MaintainEvery <= 0:
		return invalid.New("livedb", "MaintainEvery", "%g is not positive", c.MaintainEvery)
	case c.RetrainS <= 0:
		return invalid.New("livedb", "RetrainS", "%g is not positive", c.RetrainS)
	case c.CooldownS <= 0:
		return invalid.New("livedb", "CooldownS", "%g is not positive", c.CooldownS)
	}
	return nil
}

// Modeled per-operation costs in simulated seconds: the constants the
// engine advances the shared clock by, chosen so the learned path's
// window-bounded search beats the B-tree's node walks — the crossover the
// live metrics must re-attain after every retrain.
const (
	costBloomProbe = 200e-9 // classifier + backup filter probe
	costWindowStep = 50e-9  // per halving of the RMI error window
	costBTreeNode  = 300e-9 // per B-tree level touched
	costSortedStep = 40e-9  // per halving of a sorted buffer
	costScanKey    = 10e-9  // per quarantined key scanned
	costInsertKey  = 250e-9 // per key stored
	costWalkKey    = 15e-9  // per key walked by a range scan
)

func log2Cost(n int, per float64) float64 {
	return per * math.Log2(float64(n)+2)
}

// Stats mirrors the engine's obs counters field for field — the
// reconciliation contract Engine.Reconcile checks: every counter on the
// registry must equal the corresponding Stats field exactly at the end of a
// run.
type Stats struct {
	Lookups    int // point queries answered
	RangeScans int // range-count queries answered
	Stored     int // keys committed by Insert
	Duplicates int // insert keys dropped as already present

	TierServed [NumTiers]int // queries answered per ladder tier

	BloomFP int // live bloom false positives (positive probe, key absent)
	BloomTN int // live bloom true negatives

	DegradedProbes   int // RMI probes that fell back to full search
	WindowViolations int // probes whose window exceeded the declared bound

	Retrains         int // maintenance-triggered candidate builds
	Swaps            int // candidates validated and installed
	Rollbacks        int // candidates rejected; snapshot restored
	Cooldowns        int // cooldown windows completed
	Quarantined      int // keys scrubbed out of the delta buffer
	DriftFlags       int // schema drift flags on validated candidates
	Snapshots        int // CRC'd index snapshots taken
	SnapshotsSkipped int // snapshots that failed CRC/decode during rollback
}

// Queries returns the total number of answered queries (point + range).
func (s Stats) Queries() int { return s.Lookups + s.RangeScans }

// ServedTotal sums the per-tier served counts; availability is 100% exactly
// when ServedTotal == Queries.
func (s Stats) ServedTotal() int {
	n := 0
	for _, v := range s.TierServed {
		n += v
	}
	return n
}

// Engine is the live index-maintenance engine. It is driven entirely from
// kernel events on one goroutine; none of its methods are safe for
// concurrent use.
type Engine struct {
	cfg Config
	k   *sim.Kernel
	h   *obs.Handle

	// The ladder.
	main        []uint64 // sorted, model-indexed keys
	rmi         *learned.RMI
	lb          *learned.LearnedBloom
	bt          *db.BTree // over main ∪ delta ∪ pending, synchronously maintained
	delta       []uint64  // sorted buffer of inserts since the last swap
	pending     []uint64  // sorted buffer of inserts during an active retrain
	quarantine  []uint64  // sorted keys scrubbed as corrupt, kept queryable
	declaredWin int       // the active index's validated max search window
	windowCap   int

	schema *guard.BatchSchema // candidate validation + drift flagging

	state         State
	mainVersion   int // bumped at every swap; snapshots are version-tagged
	cooldownUntil float64
	frozen        []uint64 // main ∪ delta captured at retrain start
	stopped       bool

	snaps []versionedSnap

	// Per-maintenance-window monitors (reset each tick).
	winDegraded int
	// Cumulative bloom outcome counts since the active filter was built.
	cumFP, cumTN int
	ticks        int

	// Live latency crossover accounting since the last swap: simulated
	// seconds spent on learned-tier point lookups vs what the B-tree would
	// have charged for the same queries.
	learnedServeS float64
	btreeAltS     float64
	learnedSince  int // learned-tier lookups in those sums

	stats  Stats
	ledger Ledger
}

type versionedSnap struct {
	version int
	snap    checkpoint.Snapshot
}

// NewEngine builds the engine over the initial key set (sorted copies are
// taken) and registers nothing on the kernel until Start.
func NewEngine(initial []uint64, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(initial) == 0 {
		return nil, invalid.New("livedb", "initial keys", "must be non-empty")
	}
	main := append([]uint64(nil), initial...)
	sort.Slice(main, func(i, j int) bool { return main[i] < main[j] })

	rmi, err := learned.BuildRMI(main, leaves)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		k:           cfg.Kernel,
		h:           cfg.Obs,
		main:        main,
		rmi:         rmi,
		bt:          db.BulkLoadBTree(main),
		declaredWin: rmi.MaxSearchWindow(),
	}
	e.windowCap = windowCapFor(e.declaredWin)
	e.schema = keySchema(main, driftSigma)
	e.lb = e.buildBloom(main)
	e.takeSnapshot()
	return e, nil
}

// buildBloom trains a fresh learned Bloom filter over the keys. The rng is
// derived from (seed, mainVersion) so every rebuild is deterministic and
// independent of query history.
func (e *Engine) buildBloom(keys []uint64) *learned.LearnedBloom {
	rng := rand.New(rand.NewSource(e.cfg.Seed ^ int64(e.mainVersion+1)*0x9e3779b9))
	negs := data.NegativeKeys(rng, keys, len(keys)/2+1)
	// The budget is split between the stages: a false positive escapes via
	// the classifier OR the backup filter, so giving each stage the full
	// target would serve ~2x the declared FPR from the start.
	lb, err := learned.BuildLearnedBloom(rng, keys, negs, learned.LearnedBloomConfig{
		Hidden: bloomHidden, Epochs: bloomEpochs, LR: 0.01,
		TargetFPR: targetFPR / 2, BackupFPR: targetFPR / 2,
	})
	if err != nil {
		// Unreachable: keys is never empty, the constant target lies
		// inside (0, 1) and the hidden width is positive.
		panic("livedb: buildBloom: " + err.Error())
	}
	return lb
}

// Start registers the maintenance actor's periodic monitoring on the
// kernel. Call once, before Kernel.Run.
func (e *Engine) Start() {
	maint := e.k.Actor("livedb-maint")
	maint.Every(e.cfg.MaintainEvery, e.cfg.MaintainEvery, func(now float64) bool {
		if e.stopped {
			return false
		}
		e.tick(now)
		return true
	})
}

// Stop ends maintenance after the current window; the workload calls it
// when its operation stream is exhausted so the kernel can drain.
func (e *Engine) Stop() { e.stopped = true }

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Ledger returns the maintenance audit trail.
func (e *Engine) Ledger() *Ledger { return &e.ledger }

// Reconcile checks the instruments on the engine's Config.Obs handle
// against Stats, and Stats against the ledger: every livedb.* counter, each
// tier's latency-histogram count, and the ledger's retrain, swap, rollback
// and cooldown events and quarantined keys. It returns one error naming
// every mismatch and every unchecked livedb.* counter. Reading creates
// nothing, so counters the run never touched read as 0.
func (e *Engine) Reconcile() error {
	st, led := e.stats, &e.ledger
	r := obs.NewReconciler(e.h, "livedb.")
	r.Counter("livedb.lookups", int64(st.Lookups))
	r.Counter("livedb.range_scans", int64(st.RangeScans))
	r.Counter("livedb.inserts", int64(st.Stored))
	r.Counter("livedb.duplicates", int64(st.Duplicates))
	r.Counter("livedb.bloom_fp", int64(st.BloomFP))
	r.Counter("livedb.bloom_tn", int64(st.BloomTN))
	r.Counter("livedb.degraded_probes", int64(st.DegradedProbes))
	r.Counter("livedb.window_violations", int64(st.WindowViolations))
	r.Counter("livedb.retrains", int64(st.Retrains))
	r.Counter("livedb.swaps", int64(st.Swaps))
	r.Counter("livedb.rollbacks", int64(st.Rollbacks))
	r.Counter("livedb.cooldowns", int64(st.Cooldowns))
	r.Counter("livedb.quarantined", int64(st.Quarantined))
	r.Counter("livedb.drift_flags", int64(st.DriftFlags))
	r.Counter("livedb.snapshots", int64(st.Snapshots))
	r.Counter("livedb.snapshots_skipped", int64(st.SnapshotsSkipped))
	for tier := TierLearned; int(tier) < NumTiers; tier++ {
		r.Counter("livedb.tier."+tier.String()+".served", int64(st.TierServed[tier]))
		r.HistogramCount("livedb.tier."+tier.String()+".latency_seconds", int64(st.TierServed[tier]))
	}
	r.Check(led.Count(EvRetrainStart) == st.Retrains, "ledger retrains != stats %d", st.Retrains)
	r.Check(led.Count(EvSwap) == st.Swaps, "ledger swaps != stats %d", st.Swaps)
	r.Check(led.Count(EvRollback) == st.Rollbacks, "ledger rollbacks != stats %d", st.Rollbacks)
	r.Check(led.Count(EvCooldownEnd) == st.Cooldowns, "ledger cooldowns != stats %d", st.Cooldowns)
	r.Check(led.SumN(EvRollback) == st.Quarantined, "ledger quarantined != stats %d", st.Quarantined)
	return r.Err()
}

// State returns the maintenance state machine's position.
func (e *Engine) State() State { return e.state }

// QuarantineLen returns how many scrubbed keys are parked for audit.
func (e *Engine) QuarantineLen() int { return len(e.quarantine) }

// LearnedMemoryBytes is the learned path's resident size: RMI models plus
// the bloom filter.
func (e *Engine) LearnedMemoryBytes() int64 {
	if e.rmi == nil {
		return 0
	}
	return e.rmi.MemoryBytes() + e.lb.MemoryBytes()
}

// BTreeMemoryBytes is the classical baseline's resident size.
func (e *Engine) BTreeMemoryBytes() int64 { return e.bt.MemoryBytes() }

// LearnedWin reports the live latency crossover since the last swap: total
// simulated seconds the learned tier actually charged for its point
// lookups, what the B-tree would have charged for the same queries, and how
// many lookups are in the sample.
func (e *Engine) LearnedWin() (learnedS, btreeS float64, lookups int) {
	return e.learnedServeS, e.btreeAltS, e.learnedSince
}

// Lookup answers a point membership query, walking the fallback ladder:
// delta buffer first (the hottest keys), then — state permitting — the
// learned bloom+RMI path, else the B-tree, with a final quarantine scan for
// keys scrubbed out of the main structures. The simulated clock advances by
// the modeled cost of exactly the work performed; the returned tier is the
// rung that produced the definitive answer.
func (e *Engine) Lookup(key uint64) (bool, Tier) {
	e.stats.Lookups++
	e.h.Counter("livedb.lookups").Inc()

	cost := 0.0
	found := false
	var tier Tier
	switch {
	case e.sortedHas(e.delta, key) || e.sortedHas(e.pending, key):
		found, tier = true, TierDelta
		cost += log2Cost(len(e.delta)+len(e.pending), costSortedStep)
	case e.state == StateServing && e.rmi != nil:
		tier = TierLearned
		cost += log2Cost(len(e.delta)+len(e.pending), costSortedStep)
		cost += costBloomProbe
		if !e.lb.MayContain(key) {
			// Bloom filters have no false negatives over the indexed set, so
			// a negative is a definitive miss for main.
			e.cumTN++
			e.stats.BloomTN++
			e.h.Counter("livedb.bloom_tn").Inc()
		} else {
			_, ok, w, degraded := e.rmi.Probe(e.main, key)
			cost += log2Cost(w, costWindowStep)
			e.h.Histogram("livedb.probe_window", windowBuckets).Observe(float64(w))
			if degraded {
				e.winDegraded++
				e.stats.DegradedProbes++
				e.h.Counter("livedb.degraded_probes").Inc()
			}
			if w > e.declaredWin {
				e.stats.WindowViolations++
				e.h.Counter("livedb.window_violations").Inc()
			}
			if ok {
				found = true
			} else {
				e.cumFP++
				e.stats.BloomFP++
				e.h.Counter("livedb.bloom_fp").Inc()
			}
		}
	default:
		tier = TierBTree
		cost += log2Cost(len(e.delta)+len(e.pending), costSortedStep)
		_, found = e.bt.Lookup(key)
		cost += float64(e.bt.Depth()) * costBTreeNode
	}
	if !found && len(e.quarantine) > 0 {
		cost += float64(len(e.quarantine)) * costScanKey
		if e.sortedHas(e.quarantine, key) {
			found, tier = true, TierScan
		}
	}
	if tier == TierLearned {
		e.learnedServeS += cost
		e.btreeAltS += log2Cost(len(e.delta)+len(e.pending), costSortedStep) +
			float64(e.bt.Depth())*costBTreeNode
		e.learnedSince++
	}
	e.serve(tier, cost)
	return found, tier
}

// Count answers a range-count query over [lo, hi]. The learned path ranks
// lo and hi against the model-indexed array (window-bounded searches) and
// adds the buffers; the classical path walks the B-tree.
func (e *Engine) Count(lo, hi uint64) (int, Tier) {
	e.stats.RangeScans++
	e.h.Counter("livedb.range_scans").Inc()
	if hi < lo {
		lo, hi = hi, lo
	}

	cost := 0.0
	n := 0
	var tier Tier
	if e.state == StateServing && e.rmi != nil {
		tier = TierLearned
		span := sortedRange(e.main, lo, hi)
		n += span
		// Two window-bounded boundary searches plus the walk.
		cost += costBloomProbe + 2*log2Cost(e.declaredWin, costWindowStep) + float64(span)*costWalkKey
		n += sortedRange(e.delta, lo, hi) + sortedRange(e.pending, lo, hi)
		cost += 2 * log2Cost(len(e.delta)+len(e.pending), costSortedStep)
	} else {
		tier = TierBTree
		span := e.bt.RangeCount(lo, hi)
		n += span
		cost += float64(e.bt.Depth())*costBTreeNode + float64(span)*costWalkKey
	}
	if len(e.quarantine) > 0 {
		n += sortedRange(e.quarantine, lo, hi)
		cost += float64(len(e.quarantine)) * costScanKey
	}
	e.serve(tier, cost)
	return n, tier
}

// Insert commits a batch of keys, returning the keys actually stored
// (duplicates of any ladder rung are dropped). Keys land in the delta
// buffer — or the pending buffer during an active retrain, so a candidate
// validates against a frozen key set — and the B-tree synchronously, which
// is what keeps the classical rung exact at all times.
func (e *Engine) Insert(batch []uint64) []uint64 {
	var stored []uint64
	cost := 0.0
	for _, k := range batch {
		if e.contains(k) {
			e.stats.Duplicates++
			e.h.Counter("livedb.duplicates").Inc()
			continue
		}
		if e.state == StateRetraining {
			insertSorted(&e.pending, k)
		} else {
			insertSorted(&e.delta, k)
		}
		e.bt.Insert(k, 0)
		stored = append(stored, k)
		cost += costInsertKey
	}
	e.stats.Stored += len(stored)
	e.h.Counter("livedb.inserts").Add(int64(len(stored)))
	e.k.Advance(cost)
	return stored
}

// serve attributes one answered query to a tier and advances the clock.
func (e *Engine) serve(tier Tier, cost float64) {
	e.stats.TierServed[tier]++
	e.h.Counter("livedb.tier." + tier.String() + ".served").Inc()
	e.h.Histogram("livedb.tier."+tier.String()+".latency_seconds", latencyBuckets).Observe(cost)
	e.k.Advance(cost)
}

// contains is the membership oracle across every rung (no stats, no cost):
// the duplicate screen for inserts.
func (e *Engine) contains(key uint64) bool {
	if e.sortedHas(e.delta, key) || e.sortedHas(e.pending, key) || e.sortedHas(e.quarantine, key) {
		return true
	}
	_, ok := e.bt.Lookup(key)
	return ok
}

var (
	latencyBuckets = obs.ExpBuckets(1e-7, 2, 14)
	windowBuckets  = obs.ExpBuckets(1, 2, 14)
)

// Sorted-slice helpers shared by the ladder rungs.

func (e *Engine) sortedHas(s []uint64, key uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= key })
	return i < len(s) && s[i] == key
}

// sortedRange counts keys of s in [lo, hi].
func sortedRange(s []uint64, lo, hi uint64) int {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	j := sort.Search(len(s), func(i int) bool { return s[i] > hi })
	return j - i
}

func insertSorted(s *[]uint64, key uint64) {
	i := sort.Search(len(*s), func(i int) bool { return (*s)[i] >= key })
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = key
}

// mergeSorted merges two sorted key slices into a fresh one.
func mergeSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
