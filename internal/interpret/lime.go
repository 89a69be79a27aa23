package interpret

import (
	"math"
	"math/rand"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// LIMEConfig controls a local explanation.
type LIMEConfig struct {
	Samples     int     // perturbations drawn around the input
	KernelWidth float64 // locality kernel width (in feature std units)
	Sigma       float64 // perturbation std
}

// limeRidge is the L2 regularisation of the surrogate.
const limeRidge float64 = 1e-3

// Explanation is a local linear surrogate of the model around one input:
// score(x) ≈ Intercept + Σ Weights[j]·x[j], with Fidelity the
// kernel-weighted R² of that fit.
type Explanation struct {
	Weights   []float64
	Intercept float64
	Fidelity  float64
}

// LIME explains the model's positive-probability for class `class` at input
// x (one row) by sampling perturbations, querying the model, and fitting a
// locally-weighted ridge regression.
func LIME(rng *rand.Rand, net *nn.Network, x []float64, class int, cfg LIMEConfig) Explanation {
	if cfg.Samples == 0 {
		cfg.Samples = 500
	}
	if cfg.KernelWidth == 0 {
		cfg.KernelWidth = 0.75
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 0.5
	}
	d := len(x)
	// Sample perturbations and model responses.
	xs := tensor.New(cfg.Samples, d)
	for i := 0; i < cfg.Samples; i++ {
		row := xs.Row(i)
		for j := 0; j < d; j++ {
			row[j] = x[j] + cfg.Sigma*rng.NormFloat64()
		}
	}
	probs := nn.Softmax(net.Forward(xs, false))
	ys := make([]float64, cfg.Samples)
	ws := make([]float64, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		ys[i] = probs.At(i, class)
		var dist float64
		row := xs.Row(i)
		for j := 0; j < d; j++ {
			dd := row[j] - x[j]
			dist += dd * dd
		}
		ws[i] = math.Exp(-dist / (cfg.KernelWidth * cfg.KernelWidth))
	}
	// Weighted ridge regression on [1, x-x0].
	// Solve (AᵀWA + λI) β = AᵀWy with A = [1 | Δx].
	k := d + 1
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	aty := make([]float64, k)
	feat := make([]float64, k)
	for s := 0; s < cfg.Samples; s++ {
		feat[0] = 1
		row := xs.Row(s)
		for j := 0; j < d; j++ {
			feat[j+1] = row[j] - x[j]
		}
		w := ws[s]
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				ata[a][b] += w * feat[a] * feat[b]
			}
			aty[a] += w * feat[a] * ys[s]
		}
	}
	for a := 1; a < k; a++ {
		ata[a][a] += limeRidge
	}
	beta := solveLinear(ata, aty)

	// Fidelity: weighted R².
	var wsum, ybar float64
	for s := 0; s < cfg.Samples; s++ {
		wsum += ws[s]
		ybar += ws[s] * ys[s]
	}
	ybar /= wsum
	var ssRes, ssTot float64
	for s := 0; s < cfg.Samples; s++ {
		pred := beta[0]
		row := xs.Row(s)
		for j := 0; j < d; j++ {
			pred += beta[j+1] * (row[j] - x[j])
		}
		ssRes += ws[s] * (ys[s] - pred) * (ys[s] - pred)
		ssTot += ws[s] * (ys[s] - ybar) * (ys[s] - ybar)
	}
	fid := 1.0
	if ssTot > 0 {
		fid = 1 - ssRes/ssTot
	}
	return Explanation{Weights: beta[1:], Intercept: beta[0], Fidelity: fid}
}

// solveLinear solves Ax=b by Gaussian elimination with partial pivoting.
func solveLinear(a [][]float64, b []float64) []float64 {
	n := len(b)
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		m[col], m[p] = m[p], m[col]
		if m[col][col] == 0 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		if m[r][r] == 0 {
			continue
		}
		s := m[r][n]
		for c := r + 1; c < n; c++ {
			s -= m[r][c] * x[c]
		}
		x[r] = s / m[r][r]
	}
	return x
}
