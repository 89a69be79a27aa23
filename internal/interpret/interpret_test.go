package interpret

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// clusters50D builds well-separated Gaussian clusters in 50 dimensions.
func clusters50D(seed int64, n int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.GaussianMixture(rng, n, 50, 4, 8)
	return ds.X, ds.Labels
}

func TestPCAPreservesLinearClusters(t *testing.T) {
	x, labels := clusters50D(1, 160)
	p := PCA(x, 2)
	if p.Dim(0) != 160 || p.Dim(1) != 2 {
		t.Fatalf("PCA shape %v", p.Shape())
	}
	purity := SameClassNeighborFraction(p, labels, 8)
	if purity < 0.7 {
		t.Fatalf("PCA purity %.3f on separable clusters", purity)
	}
}

func TestPCAComponentsOrthogonalEffect(t *testing.T) {
	// A rank-2 dataset embeds losslessly into 2 components: neighbor
	// structure is fully preserved.
	rng := rand.New(rand.NewSource(2))
	n := 100
	x := tensor.New(n, 10)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		for j := 0; j < 10; j++ {
			x.Set(a*float64(j)+b*float64(10-j), i, j)
		}
	}
	p := PCA(x, 2)
	if np := NeighborPreservation(x, p, 5); np < 0.95 {
		t.Fatalf("rank-2 data should embed near-perfectly, got %.3f", np)
	}
}

func TestTSNEBeatsPCAOnNonlinearClusters(t *testing.T) {
	// Rings: classes are radius bands in 2D lifted to 20-D nonlinearly;
	// PCA (linear) mixes them, t-SNE separates local structure.
	rng := rand.New(rand.NewSource(3))
	n := 180
	raw := tensor.New(n, 20)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		r := 1 + 2*float64(c) + 0.05*rng.NormFloat64()
		theta := 2 * math.Pi * rng.Float64()
		a, b := r*math.Cos(theta), r*math.Sin(theta)
		for j := 0; j < 20; j++ {
			// Nonlinear random lift.
			raw.Set(math.Sin(a*float64(j+1)/3)+math.Cos(b*float64(j+1)/4), i, j)
		}
	}
	pca := PCA(raw, 2)
	ts := TSNE(raw, TSNEConfig{Perplexity: 15, Iters: 300, LR: 50, Seed: 4})
	pcaPurity := SameClassNeighborFraction(pca, labels, 8)
	tsnePurity := SameClassNeighborFraction(ts, labels, 8)
	t.Logf("purity: PCA %.3f, t-SNE %.3f", pcaPurity, tsnePurity)
	if tsnePurity <= pcaPurity {
		t.Fatalf("t-SNE purity %.3f should beat PCA %.3f on nonlinear clusters", tsnePurity, pcaPurity)
	}
}

func TestTSNESeparatesGaussianClusters(t *testing.T) {
	x, labels := clusters50D(5, 150)
	y := TSNE(x, TSNEConfig{Perplexity: 15, Iters: 300, LR: 50, Seed: 6})
	if purity := SameClassNeighborFraction(y, labels, 8); purity < 0.8 {
		t.Fatalf("t-SNE purity %.3f too low", purity)
	}
}

func trainInterpretNet(t *testing.T, seed int64) (*nn.Network, *data.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := data.GaussianMixture(rng, 600, 6, 3, 4)
	net := nn.NewMLP(rng, nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3})
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(ds.X, nn.OneHot(ds.Labels, 3), nn.TrainConfig{Epochs: 25, BatchSize: 32})
	return net, ds
}

// boundaryRow returns the index of a row whose prediction is least
// confident — LIME explanations are most meaningful near the boundary,
// where the probability surface actually varies.
func boundaryRow(net *nn.Network, x *tensor.Tensor) int {
	probs := nn.Softmax(net.Forward(x, false))
	best, bestConf := 0, math.Inf(1)
	for i := 0; i < probs.Dim(0); i++ {
		conf := probs.Row(i)[probs.ArgMaxRow(i)]
		if conf < bestConf {
			bestConf, best = conf, i
		}
	}
	return best
}

func TestLIMELocallyFaithful(t *testing.T) {
	net, ds := trainInterpretNet(t, 7)
	rng := rand.New(rand.NewSource(8))
	row := boundaryRow(net, ds.X)
	class := net.Predict(ds.X)[row]
	exp := LIME(rng, net, ds.X.Row(row), class, LIMEConfig{
		Samples: 600, KernelWidth: 1.0, Sigma: 0.3,
	})
	if len(exp.Weights) != 6 {
		t.Fatalf("weights len %d", len(exp.Weights))
	}
	if exp.Fidelity < 0.7 {
		t.Fatalf("local fidelity %.3f too low", exp.Fidelity)
	}
}

func TestLIMEFidelityDecaysWithRadius(t *testing.T) {
	net, ds := trainInterpretNet(t, 9)
	row := boundaryRow(net, ds.X)
	class := net.Predict(ds.X)[row]
	tight := LIME(rand.New(rand.NewSource(10)), net, ds.X.Row(row), class, LIMEConfig{
		Samples: 600, KernelWidth: 1.0, Sigma: 0.2,
	})
	wide := LIME(rand.New(rand.NewSource(10)), net, ds.X.Row(row), class, LIMEConfig{
		Samples: 600, KernelWidth: 4.0, Sigma: 3.0,
	})
	if wide.Fidelity >= tight.Fidelity {
		t.Fatalf("wider neighbourhoods should fit worse: tight %.3f vs wide %.3f",
			tight.Fidelity, wide.Fidelity)
	}
}

func TestLIMERecoversLinearModel(t *testing.T) {
	// On a (nearly) linear network region, LIME weights should point in the
	// direction that increases the class probability.
	net, ds := trainInterpretNet(t, 11)
	rng := rand.New(rand.NewSource(12))
	x := ds.X.Row(0)
	class := net.Predict(ds.X)[0]
	exp := LIME(rng, net, x, class, LIMEConfig{Samples: 800, KernelWidth: 1.0, Sigma: 0.2})
	// Step along the weight direction; probability must rise.
	step := make([]float64, len(x))
	var norm float64
	for i, w := range exp.Weights {
		norm += w * w
		step[i] = w
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		t.Skip("degenerate explanation")
	}
	x2 := make([]float64, len(x))
	for i := range x {
		x2[i] = x[i] + 0.3*step[i]/norm
	}
	p1 := nn.Softmax(net.Forward(tensor.FromSlice(append([]float64(nil), x...), 1, len(x)), false)).At(0, class)
	p2 := nn.Softmax(net.Forward(tensor.FromSlice(x2, 1, len(x)), false)).At(0, class)
	if p2 <= p1 {
		t.Fatalf("moving along LIME weights should increase class prob: %.4f -> %.4f", p1, p2)
	}
}

func TestTreeSurrogateAgreesWithNetwork(t *testing.T) {
	net, ds := trainInterpretNet(t, 13)
	tree := TreeSurrogate(net, ds.X, 3, 6)
	ag := AgreementTree(net, tree, ds.X)
	if ag < 0.85 {
		t.Fatalf("tree surrogate agreement %.3f too low", ag)
	}
	if tree.Depth() > 6 {
		t.Fatalf("tree depth %d exceeds bound", tree.Depth())
	}
}

func TestDecisionTreeLearnsXor(t *testing.T) {
	// Sanity: trees handle an axis-aligned XOR a linear model cannot.
	x := tensor.FromSlice([]float64{
		0, 0, 0, 1, 1, 0, 1, 1,
	}, 4, 2)
	labels := []int{0, 1, 1, 0}
	tree := NewDecisionTree(3, 1)
	tree.Fit(x, labels, 2)
	for i := 0; i < 4; i++ {
		if tree.Predict(x.Row(i)) != labels[i] {
			t.Fatalf("XOR row %d misclassified", i)
		}
	}
}

func TestSaliencyConcentratesOnGlyph(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds, masks := data.SyntheticDigits(rng, data.DigitsConfig{N: 240})
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := nn.NewNetwork(
		nn.NewConv2D(rng, "c1", g, 4),
		nn.NewReLU("r1"),
		nn.NewFlatten("f"),
		nn.NewDense(rng, "out", 4*64, 4),
	)
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.005), rng)
	tr.Fit(ds.X, nn.OneHot(ds.Labels, 4), nn.TrainConfig{Epochs: 50, BatchSize: 16})

	// Average concentration ratio: saliency mass on the true glyph divided
	// by the glyph's area fraction (ratio 1 = no better than uniform).
	var ratio float64
	count := 0
	for i := 0; i < 40; i++ {
		x := tensor.FromSlice(append([]float64(nil), ds.X.Data[i*64:(i+1)*64]...), 1, 1, 8, 8)
		sal := Saliency(net, x, ds.Labels[i])
		mask := masks[ds.Labels[i]]
		area := 0
		for _, m := range mask {
			if m {
				area++
			}
		}
		ratio += SaliencyMass(sal, mask) / (float64(area) / 64.0)
		count++
	}
	ratio /= float64(count)
	if ratio < 1.5 {
		t.Fatalf("saliency concentration ratio %.2f too low (1 = uniform)", ratio)
	}
}
