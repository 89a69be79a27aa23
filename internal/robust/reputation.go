package robust

import (
	"fmt"
	"sort"
	"strings"

	"dlsys/internal/fp"
)

// ReputationConfig tunes the per-worker reputation tracker. The zero value
// gets sensible defaults via withDefaults.
type ReputationConfig struct {
	// Decay is the EMA coefficient on the previous score: score =
	// Decay*score + (1-Decay)*relDist. Default 0.7.
	Decay float64
	// Threshold is the score above which a round counts as an offense.
	// Scores are relative distances (worker's distance to the aggregate
	// divided by the median worker distance), so honest workers hover
	// near 1 while Byzantine uploads land orders of magnitude out. The
	// default of 8 is deliberately loose: batch noise can push an honest
	// worker to 3-5x the median for a few rounds, and a false quarantine
	// costs an honest contribution. Default 8.
	Threshold float64
	// Patience is how many consecutive offenses trigger quarantine.
	// Default 3.
	Patience int
	// Probation is how many rounds a quarantined worker sits out before
	// being readmitted (its score reset), mirroring the crash-rejoin
	// path. Default 8.
	Probation int
	// Warmup is how many initial rounds are observed but never punished,
	// letting scores settle. Default 2.
	Warmup int
}

func (c ReputationConfig) withDefaults() ReputationConfig {
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.7
	}
	if c.Threshold <= 0 {
		c.Threshold = 8
	}
	if c.Patience < 1 {
		c.Patience = 3
	}
	if c.Probation < 1 {
		c.Probation = 8
	}
	if c.Warmup < 0 {
		c.Warmup = 2
	}
	return c
}

// Event is one quarantine-ledger entry.
type Event struct {
	Round  int
	Worker int
	Kind   string // EventQuarantine or EventReadmit
	Score  float64
}

// Ledger event kinds.
const (
	EventQuarantine = "quarantine"
	EventReadmit    = "readmit"
)

// Ledger records quarantine and readmission events in occurrence order,
// with an FNV-1a fingerprint for replay verification (mirroring
// guard.Ledger).
type Ledger struct {
	events []Event
}

func (l *Ledger) record(ev Event) {
	if l != nil {
		l.events = append(l.events, ev)
	}
}

// Events returns the recorded events in occurrence order.
func (l *Ledger) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Quarantines counts quarantine events.
func (l *Ledger) Quarantines() int { return l.count(EventQuarantine) }

// Readmissions counts readmit events.
func (l *Ledger) Readmissions() int { return l.count(EventReadmit) }

func (l *Ledger) count(kind string) int {
	if l == nil {
		return 0
	}
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// Offenders returns the sorted, deduplicated set of workers that were ever
// quarantined — with a correctly tuned tracker, exactly the Byzantine set.
func (l *Ledger) Offenders() []int {
	if l == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, ev := range l.events {
		if ev.Kind == EventQuarantine {
			seen[ev.Worker] = true
		}
	}
	out := make([]int, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// OffenderString renders Offenders as a comma-joined list ("" when empty).
func (l *Ledger) OffenderString() string {
	offs := l.Offenders()
	parts := make([]string, len(offs))
	for i, w := range offs {
		parts[i] = fmt.Sprintf("%d", w)
	}
	return strings.Join(parts, ",")
}

// Fingerprint returns an FNV-1a hash over every recorded event. Two runs
// of the same seeded scenario must produce identical fingerprints.
func (l *Ledger) Fingerprint() uint64 {
	h := fp.New()
	if l != nil {
		for _, ev := range l.events {
			fmt.Fprintf(&h, "%d|%d|%s|%.17g\n", ev.Round, ev.Worker, ev.Kind, ev.Score)
		}
	}
	return uint64(h)
}

// Reputation tracks a per-worker EMA of relative distance-to-aggregate and
// quarantines persistent offenders. It is deterministic: scores depend only
// on the sequence of Observe calls, and expiries are processed in sorted
// worker order. Not safe for concurrent use; the distributed coordinator
// drives it from the single-threaded round loop.
type Reputation struct {
	cfg    ReputationConfig
	round  int
	score  map[int]float64
	streak map[int]int // consecutive offense count
	until  map[int]int // quarantined through round (exclusive)
	ledger Ledger
}

// NewReputation builds a tracker with defaults applied.
func NewReputation(cfg ReputationConfig) *Reputation {
	return &Reputation{
		cfg:    cfg.withDefaults(),
		score:  map[int]float64{},
		streak: map[int]int{},
		until:  map[int]int{},
	}
}

// Ledger returns the quarantine event ledger.
func (r *Reputation) Ledger() *Ledger {
	if r == nil {
		return nil
	}
	return &r.ledger
}

// BeginRound advances the tracker to the given round and readmits workers
// whose probation has expired, in sorted worker order for determinism.
func (r *Reputation) BeginRound(round int) {
	if r == nil {
		return
	}
	r.round = round
	var expired []int
	for w, until := range r.until {
		if round >= until {
			expired = append(expired, w)
		}
	}
	sort.Ints(expired)
	for _, w := range expired {
		delete(r.until, w)
		r.score[w] = 0
		r.streak[w] = 0
		r.ledger.record(Event{Round: round, Worker: w, Kind: EventReadmit})
	}
}

// Quarantined reports whether the worker is currently excluded.
func (r *Reputation) Quarantined(worker int) bool {
	if r == nil {
		return false
	}
	until, ok := r.until[worker]
	return ok && r.round < until
}

// Observe feeds one round's worker→aggregate distances into the tracker:
// workers[i] uploaded a vector at Euclidean distance dists[i] from the
// aggregated result. Distances are normalised by their median (so honest
// workers score near 1 regardless of gradient scale), folded into each
// worker's EMA, and persistent offenders are quarantined for the
// configured probation. Callers pass workers in ascending id order.
func (r *Reputation) Observe(workers []int, dists []float64) {
	if r == nil || len(workers) == 0 || len(workers) != len(dists) {
		return
	}
	med := medianOf(dists)
	if med <= 0 {
		med = 1
	}
	for i, w := range workers {
		rel := dists[i] / med
		r.score[w] = r.cfg.Decay*r.score[w] + (1-r.cfg.Decay)*rel
		if r.round < r.cfg.Warmup {
			continue
		}
		if r.score[w] > r.cfg.Threshold {
			r.streak[w]++
			if r.streak[w] >= r.cfg.Patience && !r.Quarantined(w) {
				r.until[w] = r.round + 1 + r.cfg.Probation
				r.ledger.record(Event{Round: r.round, Worker: w, Kind: EventQuarantine, Score: r.score[w]})
			}
		} else {
			r.streak[w] = 0
		}
	}
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
