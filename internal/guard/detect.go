package guard

import (
	"math"
	"sort"

	"dlsys/internal/tensor"
)

// lossMonitor tracks an exponential moving average and variance of the
// training loss and flags spikes by z-score. It is only fed healthy
// observations (the guard withholds corrupt steps), so a burst of faults
// cannot drag the baseline toward the faulty regime and mask itself.
type lossMonitor struct {
	decay  float64 // EMA decay for mean/variance
	warmup int     // observations before spike detection activates
	n      int
	mean   float64
	varEMA float64
}

// observe feeds one healthy loss value.
func (m *lossMonitor) observe(loss float64) {
	m.n++
	if m.n == 1 {
		m.mean = loss
		return
	}
	d := loss - m.mean
	m.mean += (1 - m.decay) * d
	m.varEMA = m.decay*m.varEMA + (1-m.decay)*d*d
}

// zscore returns the spike z-score of a candidate loss against the baseline,
// or 0 while warming up. The standard deviation is floored at a fraction of
// the mean so near-constant early losses don't make every fluctuation an
// 8-sigma event.
func (m *lossMonitor) zscore(loss float64) float64 {
	if m.n < m.warmup {
		return 0
	}
	sd := math.Sqrt(m.varEMA)
	if floor := 0.05 * math.Abs(m.mean); sd < floor {
		sd = floor
	}
	if sd < 1e-6 {
		sd = 1e-6
	}
	return (loss - m.mean) / sd
}

// normWindow keeps a rolling window of healthy gradient norms; its median is
// the baseline that explosion detection and clipping target. The median (not
// the mean) keeps one legitimate large step from doubling the baseline.
type normWindow struct {
	vals   []float64
	sorted []float64 // median's scratch copy of vals
	size   int
	next   int
	n      int
}

func newNormWindow(size int) *normWindow {
	return &normWindow{vals: make([]float64, size), sorted: make([]float64, size), size: size}
}

// add feeds one healthy gradient norm.
func (w *normWindow) add(v float64) {
	w.vals[w.next] = v
	w.next = (w.next + 1) % w.size
	if w.n < w.size {
		w.n++
	}
}

// ready reports whether enough observations exist to form a baseline.
func (w *normWindow) ready() bool { return w.n >= w.size/2 && w.n >= 2 }

// median returns the median of the retained norms (0 if empty).
func (w *normWindow) median() float64 {
	if w.n == 0 {
		return 0
	}
	tmp := w.sorted[:copy(w.sorted, w.vals[:w.n])]
	sort.Float64s(tmp)
	return tmp[len(tmp)/2]
}

// gradExplosion is the explosion predicate: a norm is an explosion when it
// is at least factor times the healthy rolling median AND not below the
// absolute floor minNorm. The floor comparison is inclusive — the contract
// is that norms *below* the floor are never explosions, so a norm exactly
// at the floor is still eligible when the relative test fires.
func gradExplosion(norm, median, factor, minNorm float64) bool {
	return norm >= minNorm && norm > factor*median
}

// BatchSchema validates input batches before they reach the forward pass:
// feature-count, finiteness, value range, and (as a flag, not a gate) drift
// of the batch mean away from reference statistics.
type BatchSchema struct {
	Features int     // expected trailing feature count per example; 0 skips
	Min, Max float64 // allowed value range (inclusive)

	// Reference statistics for drift flagging; RefStd == 0 disables.
	RefMean, RefStd float64
	DriftSigma      float64 // flag when |batch mean − RefMean| > DriftSigma·RefStd
}

// NewBatchSchema infers a schema from reference (training) data: the feature
// count, a value range widened by half the observed span on each side, and
// the reference mean/std for drift flagging at driftSigma standard
// deviations.
func NewBatchSchema(ref *tensor.Tensor, driftSigma float64) *BatchSchema {
	s := ref.FiniteStats()
	span := s.Max - s.Min
	if span <= 0 {
		span = 1
	}
	mean := ref.Mean()
	var variance float64
	for _, v := range ref.Data {
		d := v - mean
		variance += d * d
	}
	if n := len(ref.Data); n > 0 {
		variance /= float64(n)
	}
	features := 0
	if ref.Rank() >= 2 {
		features = ref.Size() / ref.Dim(0)
	}
	return &BatchSchema{
		Features:   features,
		Min:        s.Min - span/2,
		Max:        s.Max + span/2,
		RefMean:    mean,
		RefStd:     math.Sqrt(variance),
		DriftSigma: driftSigma,
	}
}

// Check validates a batch. It returns ok=false with a reason when the batch
// must not be trained on, and drifted=true when the batch is usable but its
// statistics have moved away from the reference distribution.
func (s *BatchSchema) Check(bx *tensor.Tensor) (reason string, ok, drifted bool) {
	if s.Features > 0 && (bx.Rank() < 2 || bx.Size()/bx.Dim(0) != s.Features) {
		return "feature count mismatch", false, false
	}
	st := bx.FiniteStats()
	if !st.Finite() {
		return "non-finite input values", false, false
	}
	if st.Min < s.Min || st.Max > s.Max {
		return "values outside schema range", false, false
	}
	if s.RefStd > 0 && s.DriftSigma > 0 {
		if math.Abs(bx.Mean()-s.RefMean) > s.DriftSigma*s.RefStd {
			return "", true, true
		}
	}
	return "", true, false
}
