package db

import (
	"sort"

	"dlsys/internal/invalid"
)

// Histogram is a one-dimensional bucketed frequency summary supporting
// range-selectivity estimation with intra-bucket uniformity assumption —
// the classical estimator the learned estimator (E15) competes with.
type Histogram struct {
	Bounds []float64 // len = buckets+1, ascending
	Counts []int     // len = buckets
	total  int
}

// NewEquiWidth builds a histogram with equally wide buckets over the data's
// range. A typed error rejects empty input or a non-positive bucket count.
func NewEquiWidth(values []float64, buckets int) (*Histogram, error) {
	if err := checkHistInput("NewEquiWidth", values, buckets); err != nil {
		return nil, err
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	h := &Histogram{Bounds: make([]float64, buckets+1), Counts: make([]int, buckets), total: len(values)}
	for i := 0; i <= buckets; i++ {
		h.Bounds[i] = lo + (hi-lo)*float64(i)/float64(buckets)
	}
	for _, v := range values {
		b := int(float64(buckets) * (v - lo) / (hi - lo))
		if b == buckets {
			b--
		}
		h.Counts[b]++
	}
	return h, nil
}

// NewEquiDepth builds a histogram whose buckets hold (approximately) equal
// numbers of values, which adapts bucket width to skew. A typed error
// rejects empty input or a non-positive bucket count.
func NewEquiDepth(values []float64, buckets int) (*Histogram, error) {
	if err := checkHistInput("NewEquiDepth", values, buckets); err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	h := &Histogram{total: len(values)}
	h.Bounds = append(h.Bounds, sorted[0])
	per := len(sorted) / buckets
	if per < 1 {
		per = 1
	}
	for i := 1; i < buckets; i++ {
		idx := i * per
		if idx >= len(sorted) {
			break
		}
		// Skip duplicate boundaries to keep Bounds strictly ascending.
		if sorted[idx] > h.Bounds[len(h.Bounds)-1] {
			h.Bounds = append(h.Bounds, sorted[idx])
		}
	}
	h.Bounds = append(h.Bounds, sorted[len(sorted)-1])
	h.Counts = make([]int, len(h.Bounds)-1)
	for _, v := range values {
		h.Counts[h.bucketOf(v)]++
	}
	return h, nil
}

func (h *Histogram) bucketOf(v float64) int {
	// Find the last bound ≤ v.
	i := sort.SearchFloat64s(h.Bounds, v)
	if i >= len(h.Counts)+1 {
		return len(h.Counts) - 1
	}
	if i > 0 && (i == len(h.Bounds) || h.Bounds[i] != v) {
		i--
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// EstimateRange returns the estimated fraction of values in [lo, hi],
// assuming uniformity within buckets.
func (h *Histogram) EstimateRange(lo, hi float64) float64 {
	if hi < lo || h.total == 0 {
		return 0
	}
	var est float64
	for b := 0; b < len(h.Counts); b++ {
		bLo, bHi := h.Bounds[b], h.Bounds[b+1]
		if bHi < lo || bLo > hi {
			continue
		}
		overlapLo := bLo
		if lo > overlapLo {
			overlapLo = lo
		}
		overlapHi := bHi
		if hi < overlapHi {
			overlapHi = hi
		}
		width := bHi - bLo
		frac := 1.0
		if width > 0 {
			frac = (overlapHi - overlapLo) / width
		}
		if frac < 0 {
			frac = 0
		}
		est += frac * float64(h.Counts[b])
	}
	return est / float64(h.total)
}

// IndependentEstimator estimates conjunctive multi-attribute selectivities
// as the product of per-attribute histogram estimates — the attribute-value
// independence (AVI) assumption whose failure on correlated data motivates
// learned estimators.
type IndependentEstimator struct {
	Hists map[string]*Histogram
}

// NewIndependentEstimator builds per-column equi-depth histograms. A typed
// error rejects an empty table or non-positive bucket count.
func NewIndependentEstimator(t *Table, buckets int) (*IndependentEstimator, error) {
	e := &IndependentEstimator{Hists: map[string]*Histogram{}}
	for _, c := range t.Columns() {
		h, err := NewEquiDepth(t.mustColumn(c), buckets)
		if err != nil {
			return nil, invalid.New("db", "NewIndependentEstimator", "column %s: %s", c, err.(*invalid.Error).Reason)
		}
		e.Hists[c] = h
	}
	return e, nil
}

// Estimate returns the estimated selectivity of the conjunction, or a typed
// error when a predicate names a column with no histogram.
func (e *IndependentEstimator) Estimate(preds []Pred) (float64, error) {
	sel := 1.0
	for _, p := range preds {
		h, ok := e.Hists[p.Col]
		if !ok {
			return 0, invalid.New("db", "Estimate", "no histogram for column %s", p.Col)
		}
		sel *= h.EstimateRange(p.Lo, p.Hi)
	}
	return sel, nil
}

// QError is the standard cardinality-estimation error metric:
// max(est, true)/min(est, true), with both floored to avoid division by
// zero. Perfect estimates score 1.
func QError(estimate, truth float64) float64 {
	const floor = 1e-6
	if estimate < floor {
		estimate = floor
	}
	if truth < floor {
		truth = floor
	}
	if estimate > truth {
		return estimate / truth
	}
	return truth / estimate
}
