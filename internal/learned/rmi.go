// Package learned implements the deep-learning-for-data-systems components
// surveyed in Part 2 of the tutorial: a two-level recursive-model learned
// index (Kraska et al.), a learned Bloom filter with a backup filter, a
// neural multi-attribute selectivity estimator, a Q-learning database knob
// tuner, and a learned cost model driving join ordering. Each component is
// benchmarked against the exact classical baseline in internal/db.
package learned

import (
	"math"
	"sort"

	"dlsys/internal/invalid"
)

// linearModel is y ≈ A·x + B fit by least squares.
type linearModel struct {
	A, B float64
}

func fitLinear(xs, ys []float64) linearModel {
	n := float64(len(xs))
	if n == 0 {
		return linearModel{}
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return linearModel{A: 0, B: sy / n}
	}
	a := (n*sxy - sx*sy) / den
	return linearModel{A: a, B: (sy - a*sx) / n}
}

func (m linearModel) predict(x float64) float64 { return m.A*x + m.B }

// finite reports whether both coefficients are usable numbers. A corrupted
// model (bit flip at rest, poisoned retrain) typically surfaces as NaN/Inf
// here, and int(NaN) is platform-defined in Go — so every prediction that
// feeds an array index must pass through this gate first.
func (m linearModel) finite() bool {
	return !math.IsNaN(m.A) && !math.IsInf(m.A, 0) && !math.IsNaN(m.B) && !math.IsInf(m.B, 0)
}

// RMI is a two-level recursive model index over a sorted key array: a root
// linear model routes each key to one of L second-level linear models, each
// predicting the key's array position with recorded error bounds. Lookups
// predict a position and binary-search only the error window.
type RMI struct {
	root   linearModel
	leaves []rmiLeaf
	n      int
}

type rmiLeaf struct {
	model        linearModel
	errLo, errHi int // worst under-/over-prediction within the leaf
}

// BuildRMI fits the index over sorted keys with the given number of
// second-level models. A typed *invalid.Error rejects an empty key set or
// a non-positive leaf count.
func BuildRMI(keys []uint64, numLeaves int) (*RMI, error) {
	if len(keys) == 0 {
		return nil, invalid.New("learned", "BuildRMI", "empty key set")
	}
	if numLeaves < 1 {
		return nil, invalid.New("learned", "BuildRMI", "needs at least one leaf, got %d", numLeaves)
	}
	n := len(keys)
	// Root model maps key → leaf index; fit on (key, leaf) pairs where the
	// ideal leaf is proportional to rank.
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, k := range keys {
		xs[i] = float64(k)
		ys[i] = float64(i) * float64(numLeaves) / float64(n)
	}
	r := &RMI{root: fitLinear(xs, ys), n: n, leaves: make([]rmiLeaf, numLeaves)}

	// Partition keys by routed leaf, then fit each leaf on its members.
	members := make([][]int, numLeaves)
	for i, k := range keys {
		l := r.route(float64(k))
		members[l] = append(members[l], i)
	}
	for l := 0; l < numLeaves; l++ {
		idx := members[l]
		if len(idx) == 0 {
			// Empty leaf: inherit a flat model at the split point.
			r.leaves[l] = rmiLeaf{model: linearModel{B: float64(l) * float64(n) / float64(numLeaves)}}
			continue
		}
		lx := make([]float64, len(idx))
		ly := make([]float64, len(idx))
		for j, i := range idx {
			lx[j] = float64(keys[i])
			ly[j] = float64(i)
		}
		m := fitLinear(lx, ly)
		leaf := rmiLeaf{model: m}
		for j, i := range idx {
			pred := int(math.Round(m.predict(lx[j])))
			if d := i - pred; d < leaf.errLo {
				leaf.errLo = d
			} else if d > leaf.errHi {
				leaf.errHi = d
			}
		}
		r.leaves[l] = leaf
	}
	return r, nil
}

func (r *RMI) route(key float64) int {
	l := int(r.root.predict(key))
	if l < 0 {
		return 0
	}
	if l >= len(r.leaves) {
		return len(r.leaves) - 1
	}
	return l
}

// Lookup finds key's position in the sorted array it was built over. The
// array must be passed in (the index stores only models). Returns the
// position and whether the key is present.
//
// Lookup is hardened against a corrupted index: a non-finite root or leaf
// model, an inverted error window (errLo > errHi), or a prediction window
// that clamps to empty all degrade to a full binary search over the array.
// A damaged learned index therefore loses only its speedup, never its
// correctness.
func (r *RMI) Lookup(keys []uint64, key uint64) (int, bool) {
	pos, ok, _, _ := r.Probe(keys, key)
	return pos, ok
}

// Probe is Lookup instrumented for live index-health monitoring: it
// additionally reports the width of the window that was binary-searched and
// whether the index degraded to the corruption-fallback full search. An
// online maintenance layer uses the window stream to detect model drift
// (growing windows) and the degraded flag to detect outright corruption.
func (r *RMI) Probe(keys []uint64, key uint64) (pos int, ok bool, window int, degraded bool) {
	if !r.root.finite() {
		pos, ok = fullSearch(keys, key)
		return pos, ok, len(keys), true
	}
	leaf := r.leaves[r.route(float64(key))]
	if !leaf.model.finite() || leaf.errLo > leaf.errHi {
		pos, ok = fullSearch(keys, key)
		return pos, ok, len(keys), true
	}
	p := leaf.model.predict(float64(key))
	if math.IsNaN(p) || math.IsInf(p, 0) {
		pos, ok = fullSearch(keys, key)
		return pos, ok, len(keys), true
	}
	pred := int(math.Round(p))
	lo := pred + leaf.errLo
	hi := pred + leaf.errHi + 1
	if lo < 0 {
		lo = 0
	}
	if hi > len(keys) {
		hi = len(keys)
	}
	if lo >= hi {
		// The clamped window is empty: the model predicted far outside the
		// array, which a healthy leaf's recorded error bounds never do.
		pos, ok = fullSearch(keys, key)
		return pos, ok, len(keys), true
	}
	w := keys[lo:hi]
	i := sort.Search(len(w), func(i int) bool { return w[i] >= key })
	if i < len(w) && w[i] == key {
		return lo + i, true, hi - lo, false
	}
	return 0, false, hi - lo, false
}

// fullSearch is the corruption fallback: a plain binary search over the
// whole array, correct regardless of index state.
func fullSearch(keys []uint64, key uint64) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	if i < len(keys) && keys[i] == key {
		return i, true
	}
	return 0, false
}

// MaxSearchWindow returns the largest error window any leaf requires — the
// bound on per-lookup binary-search work.
func (r *RMI) MaxSearchWindow() int {
	w := 0
	for _, l := range r.leaves {
		if s := l.errHi - l.errLo + 1; s > w {
			w = s
		}
	}
	return w
}

// MemoryBytes is the index's resident size: two float64 per model plus two
// ints of error bounds per leaf.
func (r *RMI) MemoryBytes() int64 {
	return 16 + int64(len(r.leaves))*(16+16)
}

// Coeffs flattens the index into a float64 vector so it can ride existing
// checkpoint machinery (CRC'd snapshots, rollback stores). Layout:
// [n, numLeaves, rootA, rootB, then per leaf A, B, errLo, errHi].
// RMIFromCoeffs inverts it.
func (r *RMI) Coeffs() []float64 {
	c := make([]float64, 0, 4+4*len(r.leaves))
	c = append(c, float64(r.n), float64(len(r.leaves)), r.root.A, r.root.B)
	for _, l := range r.leaves {
		c = append(c, l.model.A, l.model.B, float64(l.errLo), float64(l.errHi))
	}
	return c
}

// RMIFromCoeffs reconstructs an index from a Coeffs vector. A typed
// *invalid.Error rejects a malformed vector (wrong length, non-positive header
// fields, non-integral header) so a corrupted snapshot cannot be installed.
func RMIFromCoeffs(c []float64) (*RMI, error) {
	if len(c) < 4 {
		return nil, invalid.New("learned", "RMIFromCoeffs", "vector of %d shorter than header", len(c))
	}
	n, leaves := c[0], c[1]
	if n != math.Trunc(n) || leaves != math.Trunc(leaves) || n < 1 || leaves < 1 {
		return nil, invalid.New("learned", "RMIFromCoeffs", "non-integral or non-positive header (%g, %g)", n, leaves)
	}
	nl := int(leaves)
	if len(c) != 4+4*nl {
		return nil, invalid.New("learned", "RMIFromCoeffs", "vector length %d does not match %d leaves", len(c), nl)
	}
	r := &RMI{
		n:      int(n),
		root:   linearModel{A: c[2], B: c[3]},
		leaves: make([]rmiLeaf, nl),
	}
	for l := 0; l < nl; l++ {
		o := 4 + 4*l
		r.leaves[l] = rmiLeaf{
			model: linearModel{A: c[o], B: c[o+1]},
			errLo: int(c[o+2]),
			errHi: int(c[o+3]),
		}
	}
	return r, nil
}
