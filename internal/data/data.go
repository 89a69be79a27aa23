// Package data generates the deterministic synthetic datasets used across
// dlsys experiments. Real workloads from the tutorial's citations (MNIST,
// ImageNet, census data, production key sets) are substituted with
// laptop-scale synthetic equivalents that preserve the statistical
// structure each technique exploits: cluster structure for classifiers,
// localized discriminative pixels for saliency, skew for learned indexes,
// attribute correlation for selectivity estimation, and injectable group
// bias for fairness.
package data

import (
	"math"
	"math/rand"

	"dlsys/internal/tensor"
)

// Dataset is a labelled classification dataset. X has examples along the
// leading axis (rank 2 for tabular data, rank 4 NCHW for images).
type Dataset struct {
	X       *tensor.Tensor
	Labels  []int
	Classes int
}

// N returns the number of examples.
func (d *Dataset) N() int { return len(d.Labels) }

// Split partitions the dataset into train and test subsets with the given
// train fraction, shuffling with rng first.
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	n := d.N()
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	return d.subset(perm[:nTrain]), d.subset(perm[nTrain:])
}

// Subset returns a new dataset containing the given example indices.
func (d *Dataset) Subset(idx []int) *Dataset { return d.subset(idx) }

func (d *Dataset) subset(idx []int) *Dataset {
	exSize := d.X.Size() / d.X.Dim(0)
	shape := append([]int{len(idx)}, d.X.Shape()[1:]...)
	x := tensor.New(shape...)
	labels := make([]int, len(idx))
	for bi, i := range idx {
		copy(x.Data[bi*exSize:(bi+1)*exSize], d.X.Data[i*exSize:(i+1)*exSize])
		labels[bi] = d.Labels[i]
	}
	return &Dataset{X: x, Labels: labels, Classes: d.Classes}
}

// GaussianMixture generates n points in dim dimensions from `classes`
// spherical Gaussians whose centers are drawn uniformly from
// [-sep, sep]^dim; each class has unit within-class standard deviation.
// Larger sep makes the problem easier.
func GaussianMixture(rng *rand.Rand, n, dim, classes int, sep float64) *Dataset {
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = (2*rng.Float64() - 1) * sep
		}
	}
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		for j := 0; j < dim; j++ {
			x.Data[i*dim+j] = centers[c][j] + rng.NormFloat64()
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: classes}
}

// TwoMoons generates the classic two interleaving half-circles with additive
// Gaussian noise — a minimal dataset that is not linearly separable.
func TwoMoons(rng *rand.Rand, n int, noise float64) *Dataset {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		theta := math.Pi * rng.Float64()
		var px, py float64
		if i%2 == 0 {
			px, py = math.Cos(theta), math.Sin(theta)
			labels[i] = 0
		} else {
			px, py = 1-math.Cos(theta), 0.5-math.Sin(theta)
			labels[i] = 1
		}
		x.Data[i*2] = px + noise*rng.NormFloat64()
		x.Data[i*2+1] = py + noise*rng.NormFloat64()
	}
	return &Dataset{X: x, Labels: labels, Classes: 2}
}

// DigitsConfig controls SyntheticDigits generation.
type DigitsConfig struct {
	N int
}

// The digit images: side length in pixels, class count and the pixel
// noise's standard deviation.
const (
	digitsSize            = 8
	digitsClasses         = 4
	digitsNoise   float64 = 0.25
)

// SyntheticDigits generates [N, 1, 8, 8] images where each of 4 classes has
// a distinct bright glyph (horizontal bar, vertical bar, diagonal, square
// outline) on a noisy background. The glyph pixels are the ground-truth
// discriminative region, which the saliency experiments (E28) check against.
func SyntheticDigits(rng *rand.Rand, cfg DigitsConfig) (*Dataset, [][]bool) {
	const s = digitsSize
	masks := glyphMasks(s, digitsClasses)
	x := tensor.New(cfg.N, 1, s, s)
	labels := make([]int, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c := i % digitsClasses
		labels[i] = c
		base := i * s * s
		for p := 0; p < s*s; p++ {
			v := digitsNoise * rng.NormFloat64()
			if masks[c][p] {
				v += 1.0
			}
			x.Data[base+p] = v
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: digitsClasses}, masks
}

// glyphMasks returns, for each class, a boolean mask over the s×s pixels
// marking that class's glyph.
func glyphMasks(s, classes int) [][]bool {
	masks := make([][]bool, classes)
	for c := range masks {
		m := make([]bool, s*s)
		mid := s / 2
		switch c % 4 {
		case 0: // horizontal bar
			for x := 0; x < s; x++ {
				m[mid*s+x] = true
			}
		case 1: // vertical bar
			for y := 0; y < s; y++ {
				m[y*s+mid] = true
			}
		case 2: // main diagonal
			for d := 0; d < s; d++ {
				m[d*s+d] = true
			}
		case 3: // square outline
			for d := 1; d < s-1; d++ {
				m[1*s+d] = true
				m[(s-2)*s+d] = true
				m[d*s+1] = true
				m[d*s+(s-2)] = true
			}
		}
		masks[c] = m
	}
	return masks
}

// RegressionConfig controls Regression generation.
type RegressionConfig struct {
	N     int
	Dim   int
	Noise float64 // target noise std
	// Nonlinear adds a sin transform of the first feature, making linear
	// models underfit.
	Nonlinear bool
}

// Regression generates a regression dataset y = w·x (+ sin term) + noise,
// returning inputs, targets (shape [n, 1]), and the true weights.
func Regression(rng *rand.Rand, cfg RegressionConfig) (x, y *tensor.Tensor, w []float64) {
	x = tensor.New(cfg.N, cfg.Dim)
	y = tensor.New(cfg.N, 1)
	w = make([]float64, cfg.Dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < cfg.N; i++ {
		var t float64
		for j := 0; j < cfg.Dim; j++ {
			v := rng.NormFloat64()
			x.Set(v, i, j)
			t += w[j] * v
		}
		if cfg.Nonlinear {
			t += 2 * math.Sin(3*x.At(i, 0))
		}
		y.Data[i] = t + cfg.Noise*rng.NormFloat64()
	}
	return x, y, w
}
