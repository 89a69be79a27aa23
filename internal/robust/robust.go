// Package robust implements Byzantine-robust aggregation for simulated
// distributed training (internal/distributed): pluggable rules that combine
// per-worker gradient or parameter vectors while tolerating a minority of
// adversarial contributions, plus a reputation tracker that quarantines
// persistent offenders and readmits them through a probation window.
//
// The aggregators reproduce the standard robust-aggregation families:
// coordinate-wise median and trimmed mean (Yin et al., "Byzantine-Robust
// Distributed Learning"), Krum (Blanchard et al., "Machine Learning with
// Adversaries"), and norm clipping — alongside the plain mean baseline that
// a single poisoned gradient corrupts. Every aggregator is a deterministic
// pure function of its inputs (ties broken by index), so robust runs replay
// bit-identically like everything else in dlsys.
//
// Each aggregator also carries a FLOPs cost model, which the distributed
// simulator charges to its virtual clock: robustness costs measurable but
// bounded step time, and experiment X9 asserts exactly that.
package robust

import (
	"fmt"
	"math"
	"sort"

	"dlsys/internal/tensor"
)

// Aggregator combines per-worker vectors into one update. Implementations
// must be deterministic pure functions of vecs (callers pass vectors in
// worker-id order and every vector has len(out) entries) and must not
// mutate the input vectors.
type Aggregator interface {
	// Name identifies the rule in tables and ledgers.
	Name() string
	// FLOPs is the cost model charged to the simulated clock for one
	// aggregation of n vectors of dimension d.
	FLOPs(n, d int) int64
	// Aggregate writes the combined vector into out. With no input
	// vectors, out is zeroed.
	Aggregate(out []float64, vecs [][]float64)
}

func zero(out []float64) {
	for i := range out {
		out[i] = 0
	}
}

// Mean is the non-robust baseline: the plain arithmetic mean, summed in
// input order. It reproduces bit-for-bit the historical averaging of
// distributed.Train — and is corrupted by a single poisoned vector.
type Mean struct{}

// Name implements Aggregator.
func (Mean) Name() string { return "mean" }

// FLOPs implements Aggregator: one add per entry plus the divide.
func (Mean) FLOPs(n, d int) int64 { return int64(n+1) * int64(d) }

// Aggregate implements Aggregator.
func (Mean) Aggregate(out []float64, vecs [][]float64) {
	zero(out)
	if len(vecs) == 0 {
		return
	}
	for _, v := range vecs {
		for i, x := range v {
			out[i] += x
		}
	}
	n := float64(len(vecs))
	for i := range out {
		out[i] /= n
	}
}

// CoordMedian is the coordinate-wise median: each output entry is the
// median of that coordinate across workers (mean of the two middle values
// for an even count). It tolerates up to half the inputs being arbitrary.
type CoordMedian struct{}

// Name implements Aggregator.
func (CoordMedian) Name() string { return "coordmedian" }

// FLOPs implements Aggregator: a per-coordinate sort of n values.
func (CoordMedian) FLOPs(n, d int) int64 { return sortFLOPs(n) * int64(d) }

// Aggregate implements Aggregator.
func (CoordMedian) Aggregate(out []float64, vecs [][]float64) {
	zero(out)
	if len(vecs) == 0 {
		return
	}
	col := make([]float64, len(vecs))
	for i := range out {
		for w, v := range vecs {
			col[w] = v[i]
		}
		sort.Float64s(col)
		mid := len(col) / 2
		if len(col)%2 == 1 {
			out[i] = col[mid]
		} else {
			out[i] = (col[mid-1] + col[mid]) / 2
		}
	}
}

// TrimmedMean drops the Trim lowest and Trim highest values of every
// coordinate and averages the rest. Trim is clamped so at least one value
// survives; Trim <= 0 degenerates to the plain mean of the sorted column.
type TrimmedMean struct {
	Trim int
}

// Name implements Aggregator.
func (t TrimmedMean) Name() string { return fmt.Sprintf("trimmed(%d)", t.Trim) }

// FLOPs implements Aggregator: a per-coordinate sort plus the kept sum.
func (t TrimmedMean) FLOPs(n, d int) int64 { return (sortFLOPs(n) + int64(n)) * int64(d) }

// Aggregate implements Aggregator.
func (t TrimmedMean) Aggregate(out []float64, vecs [][]float64) {
	zero(out)
	if len(vecs) == 0 {
		return
	}
	n := len(vecs)
	k := t.Trim
	if k < 0 {
		k = 0
	}
	if 2*k >= n {
		k = (n - 1) / 2
	}
	col := make([]float64, n)
	for i := range out {
		for w, v := range vecs {
			col[w] = v[i]
		}
		sort.Float64s(col)
		var sum float64
		for _, x := range col[k : n-k] {
			sum += x
		}
		out[i] = sum / float64(n-2*k)
	}
}

// Krum selects the single vector whose summed squared distance to its
// n−F−2 nearest neighbours is smallest (Blanchard et al.): a vector far
// from the honest cluster cannot win. F is the assumed number of Byzantine
// workers; ties break toward the lower index.
type Krum struct {
	F int
}

// Name implements Aggregator.
func (k Krum) Name() string { return fmt.Sprintf("krum(%d)", k.F) }

// FLOPs implements Aggregator: all pairwise distances dominate.
func (k Krum) FLOPs(n, d int) int64 { return 3 * int64(n) * int64(n) * int64(d) }

// Aggregate implements Aggregator.
func (k Krum) Aggregate(out []float64, vecs [][]float64) {
	zero(out)
	if len(vecs) == 0 {
		return
	}
	best := krumOrder(vecs, k.F)[0]
	copy(out, vecs[best])
}

// krumOrder returns vector indices sorted by ascending Krum score: the sum
// of squared distances to each vector's n−f−2 nearest neighbours (clamped
// to at least one neighbour). Ties break toward the lower index.
func krumOrder(vecs [][]float64, f int) []int {
	n := len(vecs)
	m := n - f - 2
	if m < 1 {
		m = 1
	}
	if m > n-1 {
		m = n - 1
	}
	d2 := pairwiseD2(vecs)
	scores := make([]float64, n)
	neigh := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		neigh = neigh[:0]
		for j := 0; j < n; j++ {
			if j != i {
				neigh = append(neigh, d2[i][j])
			}
		}
		sort.Float64s(neigh)
		var s float64
		for _, x := range neigh[:m] {
			s += x
		}
		scores[i] = s
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	return order
}

// krumGramWorkers is the fleet size above which the pairwise distance
// matrix switches from direct differences to the Gram-matrix identity
// ‖vi−vj‖² = ‖vi‖² + ‖vj‖² − 2⟨vi,vj⟩ computed through one fused
// V·Vᵀ product on the tensor engine. The identity reassociates the
// arithmetic (it is not bit-identical to direct differences, only equal
// within rounding), so small historical fleets — X9 runs 8 workers —
// keep the exact original computation, and the O(n²d) GEMM only takes
// over where it pays.
const krumGramWorkers = 24

// pairwiseD2 returns the symmetric matrix of squared Euclidean distances
// between all vector pairs, with zeros on the diagonal.
func pairwiseD2(vecs [][]float64) [][]float64 {
	n := len(vecs)
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	if n >= krumGramWorkers && len(vecs[0]) > 0 {
		d := len(vecs[0])
		v := tensor.New(n, d)
		for i, row := range vecs {
			copy(v.Data[i*d:(i+1)*d], row)
		}
		g := tensor.MatMulTransB(v, v)
		for i := 0; i < n; i++ {
			gii := g.Data[i*n+i]
			for j := i + 1; j < n; j++ {
				s := gii + g.Data[j*n+j] - 2*g.Data[i*n+j]
				if s < 0 {
					s = 0 // cancellation can push a tiny distance negative
				}
				d2[i][j], d2[j][i] = s, s
			}
		}
		return d2
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			vi, vj := vecs[i], vecs[j]
			for c := range vi {
				diff := vi[c] - vj[c]
				s += diff * diff
			}
			d2[i][j], d2[j][i] = s, s
		}
	}
	return d2
}

// NormClip rescales every vector whose norm exceeds Factor times the MEAN
// participant norm down to that threshold, then averages. The mean-norm
// threshold is deliberately non-robust — an adversary that inflates its own
// norm drags the clip threshold up with it, which is exactly why NormClip
// alone fails under the amplified sign-flip attack (experiment X9) while
// still taming plain scale attacks.
type NormClip struct {
	// Factor scales the mean-norm threshold (default 1).
	Factor float64
}

// Name implements Aggregator.
func (NormClip) Name() string { return "normclip" }

// FLOPs implements Aggregator: norms, scaling, and the mean.
func (NormClip) FLOPs(n, d int) int64 { return 3 * int64(n) * int64(d) }

// Aggregate implements Aggregator.
func (c NormClip) Aggregate(out []float64, vecs [][]float64) {
	zero(out)
	if len(vecs) == 0 {
		return
	}
	factor := c.Factor
	if factor <= 0 {
		factor = 1
	}
	var meanNorm float64
	norms := make([]float64, len(vecs))
	for w, v := range vecs {
		var s float64
		for _, x := range v {
			s += x * x
		}
		norms[w] = math.Sqrt(s)
		meanNorm += norms[w]
	}
	meanNorm /= float64(len(vecs))
	tau := factor * meanNorm
	for w, v := range vecs {
		scale := 1.0
		if norms[w] > tau && norms[w] > 0 {
			scale = tau / norms[w]
		}
		for i, x := range v {
			out[i] += scale * x
		}
	}
	n := float64(len(vecs))
	for i := range out {
		out[i] /= n
	}
}

// sortFLOPs approximates the comparison cost of sorting n values.
func sortFLOPs(n int) int64 {
	if n < 2 {
		return 1
	}
	return int64(float64(n) * math.Log2(float64(n)))
}
