// Package interpret implements the interpretable-deep-learning techniques
// of Part 3.2 of the tutorial: dimensionality reduction (PCA and t-SNE),
// local surrogate explanations (LIME), global surrogacy (decision trees and
// distilled students), and gradient saliency maps.
package interpret

import (
	"math"
	"math/rand"

	"dlsys/internal/tensor"
)

// PCA projects rows of x onto the top-k principal components, computed by
// power iteration with deflation on the covariance matrix.
func PCA(x *tensor.Tensor, k int) *tensor.Tensor {
	n, d := x.Dim(0), x.Dim(1)
	// Center.
	centered := x.Clone()
	for j := 0; j < d; j++ {
		var mu float64
		for i := 0; i < n; i++ {
			mu += centered.At(i, j)
		}
		mu /= float64(n)
		for i := 0; i < n; i++ {
			centered.Set(centered.At(i, j)-mu, i, j)
		}
	}
	// Covariance (d×d).
	cov := tensor.MatMulTransA(centered, centered)
	cov.ScaleInPlace(1 / float64(n))
	comps := make([][]float64, k)
	for c := 0; c < k; c++ {
		comps[c] = powerIteration(cov, 200)
		deflate(cov, comps[c])
	}
	out := tensor.New(n, k)
	for i := 0; i < n; i++ {
		row := centered.Row(i)
		for c := 0; c < k; c++ {
			var s float64
			for j := 0; j < d; j++ {
				s += row[j] * comps[c][j]
			}
			out.Set(s, i, c)
		}
	}
	return out
}

// powerIteration returns the dominant eigenvector of the symmetric matrix.
func powerIteration(m *tensor.Tensor, iters int) []float64 {
	d := m.Dim(0)
	v := make([]float64, d)
	// Deterministic non-degenerate start.
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(d)+float64(i))
	}
	for it := 0; it < iters; it++ {
		nv := make([]float64, d)
		for i := 0; i < d; i++ {
			row := m.Row(i)
			var s float64
			for j := 0; j < d; j++ {
				s += row[j] * v[j]
			}
			nv[i] = s
		}
		var norm float64
		for _, x := range nv {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return v
		}
		for i := range nv {
			nv[i] /= norm
		}
		v = nv
	}
	return v
}

// deflate removes the component's subspace: M ← M − λ·vvᵀ.
func deflate(m *tensor.Tensor, v []float64) {
	d := m.Dim(0)
	// λ = vᵀMv
	var lambda float64
	for i := 0; i < d; i++ {
		row := m.Row(i)
		var s float64
		for j := 0; j < d; j++ {
			s += row[j] * v[j]
		}
		lambda += v[i] * s
	}
	for i := 0; i < d; i++ {
		row := m.Row(i)
		for j := 0; j < d; j++ {
			row[j] -= lambda * v[i] * v[j]
		}
	}
}

// TSNEConfig controls the t-SNE embedding.
type TSNEConfig struct {
	Perplexity float64 // default 20
	Iters      int     // default 400
	LR         float64 // default 100
	Seed       int64
}

// TSNE embeds rows of x into 2-D with t-distributed stochastic neighbor
// embedding (van der Maaten & Hinton): Gaussian affinities with
// per-point bandwidths matched to the target perplexity, Student-t
// low-dimensional kernel, gradient descent with momentum and early
// exaggeration.
func TSNE(x *tensor.Tensor, cfg TSNEConfig) *tensor.Tensor {
	if cfg.Perplexity == 0 {
		cfg.Perplexity = 20
	}
	if cfg.Iters == 0 {
		cfg.Iters = 400
	}
	if cfg.LR == 0 {
		cfg.LR = 100
	}
	n := x.Dim(0)
	d2 := pairwiseSqDist(x)
	p := affinities(d2, cfg.Perplexity)
	// Symmetrize and normalise.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (p[i][j] + p[j][i]) / (2 * float64(n))
			p[i][j], p[j][i] = v, v
		}
		p[i][i] = 0
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	y := tensor.RandNormal(rng, 0, 1e-2, n, 2)
	vel := tensor.New(n, 2)
	for iter := 0; iter < cfg.Iters; iter++ {
		exag := 1.0
		if iter < cfg.Iters/4 {
			exag = 4
		}
		// q_ij ∝ (1 + ||yi-yj||²)^-1
		var qsum float64
		w := make([][]float64, n)
		for i := 0; i < n; i++ {
			w[i] = make([]float64, n)
			yi := y.Row(i)
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				yj := y.Row(j)
				dx := yi[0] - yj[0]
				dy := yi[1] - yj[1]
				w[i][j] = 1 / (1 + dx*dx + dy*dy)
				qsum += w[i][j]
			}
		}
		grad := tensor.New(n, 2)
		for i := 0; i < n; i++ {
			yi := y.Row(i)
			gi := grad.Row(i)
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				yj := y.Row(j)
				q := w[i][j] / qsum
				mult := 4 * (exag*p[i][j] - q) * w[i][j]
				gi[0] += mult * (yi[0] - yj[0])
				gi[1] += mult * (yi[1] - yj[1])
			}
		}
		momentum := 0.5
		if iter > 100 {
			momentum = 0.8
		}
		for i := range y.Data {
			vel.Data[i] = momentum*vel.Data[i] - cfg.LR*grad.Data[i]
			y.Data[i] += vel.Data[i]
		}
	}
	return y
}

func pairwiseSqDist(x *tensor.Tensor) [][]float64 {
	n := x.Dim(0)
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		ri := x.Row(i)
		for j := i + 1; j < n; j++ {
			rj := x.Row(j)
			var s float64
			for k := range ri {
				d := ri[k] - rj[k]
				s += d * d
			}
			d2[i][j], d2[j][i] = s, s
		}
	}
	return d2
}

// affinities computes row-conditional Gaussian affinities p_{j|i} with
// per-row bandwidth found by binary search to match the target perplexity.
func affinities(d2 [][]float64, perplexity float64) [][]float64 {
	n := len(d2)
	target := math.Log(perplexity)
	p := make([][]float64, n)
	for i := 0; i < n; i++ {
		p[i] = make([]float64, n)
		lo, hi := 1e-20, 1e20
		beta := 1.0 // 1/(2σ²)
		for it := 0; it < 50; it++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				p[i][j] = math.Exp(-d2[i][j] * beta)
				sum += p[i][j]
			}
			if sum == 0 {
				sum = 1e-300
			}
			// Shannon entropy of the conditional distribution.
			var h float64
			for j := 0; j < n; j++ {
				if j == i || p[i][j] == 0 {
					continue
				}
				pj := p[i][j] / sum
				h -= pj * math.Log(pj)
			}
			if math.Abs(h-target) < 1e-5 {
				for j := 0; j < n; j++ {
					p[i][j] /= sum
				}
				break
			}
			if h > target {
				lo = beta
				if hi == 1e20 {
					beta *= 2
				} else {
					beta = (lo + hi) / 2
				}
			} else {
				hi = beta
				beta = (lo + hi) / 2
			}
			if it == 49 {
				for j := 0; j < n; j++ {
					p[i][j] /= sum
				}
			}
		}
	}
	return p
}

// NeighborPreservation measures what fraction of each point's k nearest
// neighbours in the original space remain among its k nearest in the
// embedding — the standard local-structure fidelity score.
func NeighborPreservation(orig, embedded *tensor.Tensor, k int) float64 {
	n := orig.Dim(0)
	var total float64
	for i := 0; i < n; i++ {
		a := kNearest(orig, i, k)
		b := kNearest(embedded, i, k)
		set := map[int]bool{}
		for _, j := range a {
			set[j] = true
		}
		hit := 0
		for _, j := range b {
			if set[j] {
				hit++
			}
		}
		total += float64(hit) / float64(k)
	}
	return total / float64(n)
}

// SameClassNeighborFraction measures the average fraction of each point's k
// nearest embedded neighbours sharing its label — cluster purity in the
// embedding.
func SameClassNeighborFraction(embedded *tensor.Tensor, labels []int, k int) float64 {
	n := embedded.Dim(0)
	var total float64
	for i := 0; i < n; i++ {
		hit := 0
		for _, j := range kNearest(embedded, i, k) {
			if labels[j] == labels[i] {
				hit++
			}
		}
		total += float64(hit) / float64(k)
	}
	return total / float64(n)
}

func kNearest(x *tensor.Tensor, i, k int) []int {
	n := x.Dim(0)
	type nd struct {
		j int
		d float64
	}
	ri := x.Row(i)
	best := make([]nd, 0, k+1)
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		rj := x.Row(j)
		var s float64
		for t := range ri {
			d := ri[t] - rj[t]
			s += d * d
		}
		// Insert into the running top-k (k is small).
		pos := len(best)
		for pos > 0 && best[pos-1].d > s {
			pos--
		}
		if pos < k {
			best = append(best, nd{})
			copy(best[pos+1:], best[pos:])
			best[pos] = nd{j, s}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	out := make([]int, len(best))
	for t, b := range best {
		out[t] = b.j
	}
	return out
}
