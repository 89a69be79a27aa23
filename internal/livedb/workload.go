package livedb

import (
	"fmt"
	"math/rand"
	"sort"

	"dlsys/internal/fault"
	"dlsys/internal/invalid"
)

// Phase is one segment of the workload's drift schedule. From StartS
// onwards, inserts sample around the phase's cluster centers and absent
// lookups probe hard negatives (present key ± 1 — the probes a learned
// Bloom filter trained on the old distribution misclassifies) at
// HardNegFrac. Phases are how an experiment turns distribution drift on
// and off at declared times.
type Phase struct {
	StartS      float64
	Clusters    []uint64 // insert cluster centers; nil means uniform over Space
	HardNegFrac float64  // fraction of absent lookups that are hard negatives
}

// WorkloadConfig parameterizes the traffic generator. Zero fields take the
// documented defaults.
type WorkloadConfig struct {
	Seed int64
	Ops  int     // total operations to issue (required)
	Rate float64 // operations per simulated second (default 500)

	Space        uint64 // key universe [0, Space) (default 1<<44)
	ClusterWidth uint64 // spread around a cluster center (default 1<<20)

	Phases []Phase // drift schedule; empty means uniform throughout

	// Faults drives in-flight insert corruption: each key in each batch
	// draws KindCorrupt at the batch's op index, and a hit flips a high bit
	// (bits 45+) before the key reaches the engine — past the CRC layer, so
	// only candidate validation can catch it.
	Faults fault.Config
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Rate == 0 {
		c.Rate = 500
	}
	if c.Space == 0 {
		c.Space = 1 << 44
	}
	if c.ClusterWidth == 0 {
		c.ClusterWidth = 1 << 20
	}
	return c
}

// The operation mix: the fractions of operations that are insert batches
// and range counts (the rest are point lookups), the fraction of point
// lookups that probe absent keys, the keys per insert batch, and how many
// range counts' spans tile the key space.
const (
	insertFrac float64 = 0.25
	rangeFrac  float64 = 0.1
	absentFrac float64 = 0.35
	batchSize          = 8
	rangeSpans         = 512
)

// WorkloadStats summarizes a finished run from the client's side of the
// wire: every answer was checked against an exact oracle of acked writes,
// so Mismatches == 0 is the end-to-end correctness invariant and
// CorruptedSent is the ground truth the quarantine ledger reconciles
// against.
type WorkloadStats struct {
	Ops           int // operations issued
	Mismatches    int // answers disagreeing with the oracle
	CorruptedSent int // insert keys bit-flipped in flight
}

// Workload drives the engine with an interleaved, drift-scheduled,
// fault-injected operation stream as a chained actor on the shared kernel.
// Every answer is verified against a sorted oracle of acknowledged writes.
type Workload struct {
	cfg WorkloadConfig
	eng *Engine
	rng *rand.Rand
	inj *fault.Injector

	// The operation mix, resolved from insertFrac and rangeFrac; an
	// in-package test runs lookup-only traffic by zeroing both.
	insertFrac, rangeFrac float64

	present []uint64 // sorted oracle: every key the engine acked
	stats   WorkloadStats
}

// NewWorkload builds the generator over the engine's initial key set (the
// oracle starts as a sorted copy).
func NewWorkload(eng *Engine, initial []uint64, cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	fields := []invalid.Field{invalid.F("Rate", cfg.Rate)}
	for i, ph := range cfg.Phases {
		at := fmt.Sprintf("Phases[%d].", i)
		fields = append(fields, invalid.F(at+"StartS", ph.StartS), invalid.F(at+"HardNegFrac", ph.HardNegFrac))
	}
	if err := invalid.Finite("livedb", fields...); err != nil {
		return nil, err
	}
	switch {
	case cfg.Ops <= 0:
		return nil, invalid.New("livedb", "Ops", "%d is not positive", cfg.Ops)
	case cfg.Rate < 0:
		return nil, invalid.New("livedb", "Rate", "%g is negative", cfg.Rate)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	present := append([]uint64(nil), initial...)
	sort.Slice(present, func(i, j int) bool { return present[i] < present[j] })
	return &Workload{
		cfg:        cfg,
		eng:        eng,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		inj:        fault.NewInjector(cfg.Faults),
		insertFrac: insertFrac,
		rangeFrac:  rangeFrac,
		present:    present,
	}, nil
}

// Stats returns the client-side summary.
func (w *Workload) Stats() WorkloadStats { return w.stats }

// Start schedules the operation chain: each op fires 1/Rate after the
// previous one completed (the engine advances the clock by each op's
// modeled cost), and the final op stops the engine's maintenance loop so
// the kernel can drain.
func (w *Workload) Start() {
	a := w.eng.k.Actor("livedb-wl")
	gap := 1 / w.cfg.Rate
	i := 0
	var run func(now float64)
	run = func(now float64) {
		w.op(i, now)
		i++
		if i >= w.cfg.Ops {
			w.eng.Stop()
			return
		}
		a.After(gap, run)
	}
	a.After(gap, run)
}

// phase returns the active drift-schedule segment at time now.
func (w *Workload) phase(now float64) Phase {
	var p Phase
	for _, ph := range w.cfg.Phases {
		if ph.StartS <= now {
			p = ph
		}
	}
	return p
}

// op issues one operation and verifies the answer against the oracle.
func (w *Workload) op(i int, now float64) {
	w.stats.Ops++
	ph := w.phase(now)
	switch r := w.rng.Float64(); {
	case r < w.insertFrac:
		w.insert(i, now, ph)
	case r < w.insertFrac+w.rangeFrac:
		w.rangeCount()
	default:
		w.lookup(ph)
	}
}

func (w *Workload) lookup(ph Phase) {
	var key uint64
	if w.rng.Float64() < absentFrac {
		if w.rng.Float64() < ph.HardNegFrac && len(w.present) > 0 {
			// Hard negative: one off a present key — nearly identical
			// features, so a drift-stale learned Bloom scores it positive.
			key = w.present[w.rng.Intn(len(w.present))]
			if w.rng.Intn(2) == 0 {
				key++
			} else if key > 0 {
				key--
			}
		} else {
			key = w.rng.Uint64() % w.cfg.Space
		}
	} else {
		key = w.present[w.rng.Intn(len(w.present))]
	}
	// Expectation comes from the oracle, not the draw's intent — a random
	// "absent" probe may collide with a real key.
	want := w.oracleHas(key)
	got, _ := w.eng.Lookup(key)
	if got != want {
		w.stats.Mismatches++
	}
}

func (w *Workload) rangeCount() {
	lo := w.rng.Uint64() % w.cfg.Space
	hi := lo + w.cfg.Space/rangeSpans
	got, _ := w.eng.Count(lo, hi)
	if want := sortedRange(w.present, lo, hi); got != want {
		w.stats.Mismatches++
	}
}

func (w *Workload) insert(i int, now float64, ph Phase) {
	batch := make([]uint64, batchSize)
	for j := range batch {
		var k uint64
		if len(ph.Clusters) > 0 {
			c := ph.Clusters[w.rng.Intn(len(ph.Clusters))]
			k = (c + w.rng.Uint64()%w.cfg.ClusterWidth) % w.cfg.Space
		} else {
			k = w.rng.Uint64() % w.cfg.Space
		}
		if w.inj.ChanceAt(fault.KindCorrupt, 0, i, j, now) {
			// In-flight bit flip past the CRC layer: a high bit lands the
			// key far outside the schema fence.
			k |= 1 << (45 + uint(w.rng.Intn(13)))
			w.stats.CorruptedSent++
		}
		batch[j] = k
	}
	// Only acked keys enter the oracle: the engine's answer sets the
	// client's expectations, exactly as a real client's would be.
	for _, k := range w.eng.Insert(batch) {
		insertSorted(&w.present, k)
	}
}

func (w *Workload) oracleHas(key uint64) bool {
	i := sort.Search(len(w.present), func(i int) bool { return w.present[i] >= key })
	return i < len(w.present) && w.present[i] == key
}
