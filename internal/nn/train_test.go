package nn

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/tensor"
)

func TestMLPConvergesOnGaussianMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := data.GaussianMixture(rng, 600, 4, 3, 4)
	train, test := ds.Split(rng, 0.8)
	net := NewMLP(rng, MLPConfig{In: 4, Hidden: []int{32}, Out: 3})
	tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng)
	stats := tr.Fit(train.X, OneHot(train.Labels, 3), TrainConfig{Epochs: 30, BatchSize: 32})
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.9 {
		t.Fatalf("test accuracy %.3f < 0.9 (final loss %.4f)", acc, stats.EpochLoss[len(stats.EpochLoss)-1])
	}
	if stats.Steps == 0 || stats.FLOPs == 0 {
		t.Fatal("stats not recorded")
	}
	// Loss should broadly decrease.
	if stats.EpochLoss[len(stats.EpochLoss)-1] > stats.EpochLoss[0]*0.5 {
		t.Fatalf("loss did not halve: %v -> %v", stats.EpochLoss[0], stats.EpochLoss[len(stats.EpochLoss)-1])
	}
}

func TestMLPSolvesTwoMoons(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := data.TwoMoons(rng, 400, 0.08)
	train, test := ds.Split(rng, 0.75)
	net := NewMLP(rng, MLPConfig{In: 2, Hidden: []int{24, 24}, Out: 2})
	tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.02), rng)
	tr.Fit(train.X, OneHot(train.Labels, 2), TrainConfig{Epochs: 60, BatchSize: 32})
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.95 {
		t.Fatalf("two-moons accuracy %.3f < 0.95", acc)
	}
}

func TestCNNLearnsSyntheticDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, _ := data.SyntheticDigits(rng, data.DigitsConfig{N: 240})
	train, test := ds.Split(rng, 0.8)
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewNetwork(
		NewConv2D(rng, "conv1", g, 4),
		NewReLU("relu1"),
		NewFlatten("flat"),
		NewDense(rng, "fc1", 4*8*8, 4),
	)
	tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng)
	tr.Fit(train.X, OneHot(train.Labels, 4), TrainConfig{Epochs: 25, BatchSize: 16})
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.9 {
		t.Fatalf("CNN accuracy %.3f < 0.9", acc)
	}
}

func TestOptimizersAllConverge(t *testing.T) {
	base := rand.New(rand.NewSource(3))
	ds := data.GaussianMixture(base, 300, 3, 2, 4)
	for _, tc := range []struct {
		name string
		opt  func() Optimizer
		lr   float64
	}{
		{"sgd", func() Optimizer { return NewSGD(0.1) }, 0.1},
		{"adam", func() Optimizer { return NewAdam(0.01) }, 0.01},
	} {
		rng := rand.New(rand.NewSource(3))
		net := NewMLP(rng, MLPConfig{In: 3, Hidden: []int{16}, Out: 2})
		tr := NewTrainer(net, NewSoftmaxCrossEntropy(), tc.opt(), rng)
		tr.Fit(ds.X, OneHot(ds.Labels, 2), TrainConfig{Epochs: 25, BatchSize: 32})
		if acc := net.Accuracy(ds.X, ds.Labels); acc < 0.9 {
			t.Fatalf("%s: train accuracy %.3f < 0.9", tc.name, acc)
		}
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := MLPConfig{In: 4, Hidden: []int{8}, Out: 3}
	a := NewMLP(rng, cfg)
	x := tensor.RandNormal(rng, 0, 1, 16, 4)
	y := OneHot(make([]int, 16), 3)
	NewTrainer(a, NewSoftmaxCrossEntropy(), NewSGD(0.01), rng).Fit(x, y, TrainConfig{Epochs: 2, BatchSize: 8})

	b := NewMLP(rand.New(rand.NewSource(99)), cfg)
	b.LoadStateDict(a.StateDict())
	xt := tensor.RandNormal(rng, 0, 1, 8, 4)
	oa := a.Forward(xt, false)
	ob := b.Forward(xt, false)
	if !tensor.Equal(oa, ob, 1e-12) {
		t.Fatal("state dict round trip changed inference output")
	}
}

func TestParamAndGradVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewMLP(rng, MLPConfig{In: 3, Hidden: []int{4}, Out: 2})
	v := net.ParamVector()
	if len(v) != net.NumParams() {
		t.Fatalf("vector length %d != %d params", len(v), net.NumParams())
	}
	for i := range v {
		v[i] = float64(i)
	}
	net.SetParamVector(v)
	v2 := net.ParamVector()
	for i := range v2 {
		if v2[i] != float64(i) {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	g := make([]float64, len(v))
	for i := range g {
		g[i] = -float64(i)
	}
	net.SetGradVector(g)
	g2 := net.GradVector()
	for i := range g2 {
		if g2[i] != -float64(i) {
			t.Fatal("grad vector round trip failed")
		}
	}
}

func TestLRSchedules(t *testing.T) {
	cyc := CyclicCosineLR(1.0, 10)
	if math.Abs(cyc(0)-cyc(10)) > 1e-12 {
		t.Fatal("cyclic LR should restart each cycle")
	}
	if cyc(9) > 0.1 {
		t.Fatalf("end of cycle LR %g should be near 0", cyc(9))
	}
}

func TestFLOPsAndBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewMLP(rng, MLPConfig{In: 10, Hidden: []int{20}, Out: 5})
	// fc0: 2*10*20+20 per example; fc1: 2*20*5+5.
	want := int64(1)*(2*10*20+20) + int64(1)*(2*20*5+5)
	if got := net.FLOPs(1); got != want {
		t.Fatalf("FLOPs=%d want %d", got, want)
	}
	params := 10*20 + 20 + 20*5 + 5
	if net.NumParams() != params {
		t.Fatalf("NumParams=%d want %d", net.NumParams(), params)
	}
	if net.ParamBytes(32) != int64(params*4) {
		t.Fatalf("ParamBytes(32)=%d", net.ParamBytes(32))
	}
	if net.ParamBytes(1) != int64((params+7)/8) {
		t.Fatalf("ParamBytes(1)=%d", net.ParamBytes(1))
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := tensor.RandNormal(rng, 0, 5, 7, 9)
	p := Softmax(logits)
	for i := 0; i < 7; i++ {
		var s float64
		for _, v := range p.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
	// Temperature flattens: max prob at T=5 below max prob at T=1.
	p5 := SoftmaxTemperature(logits, 5)
	if p5.Max() >= p.Max() {
		t.Fatal("temperature should soften the distribution")
	}
}

func TestMLPRegressionWithMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x, y, _ := data.Regression(rng, data.RegressionConfig{N: 600, Dim: 4, Noise: 0.05, Nonlinear: true})
	net := NewMLP(rng, MLPConfig{In: 4, Hidden: []int{32, 32}, Out: 1})
	tr := NewTrainer(net, NewMSE(), NewAdam(0.005), rng)
	stats := tr.Fit(x, y, TrainConfig{Epochs: 120, BatchSize: 32})
	// Final MSE loss should approach the noise floor and certainly be far
	// below the target variance (~several units).
	if stats.EpochLoss[len(stats.EpochLoss)-1] > 0.05 {
		t.Fatalf("regression loss %.4f did not converge", stats.EpochLoss[len(stats.EpochLoss)-1])
	}
	// Loss decreased by >10x from the start.
	if stats.EpochLoss[len(stats.EpochLoss)-1] > stats.EpochLoss[0]/10 {
		t.Fatalf("loss only fell from %.4f to %.4f", stats.EpochLoss[0], stats.EpochLoss[len(stats.EpochLoss)-1])
	}
}

// A training step skips the first Dense layer's input gradient, which
// nothing reads, and must leave the loss and every parameter gradient
// exactly as the full backward pass does. Network.Backward still returns
// the input gradient.
func TestComputeGradSkipsOnlyTheInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(rng, MLPConfig{In: 3, Hidden: []int{8, 5}, Out: 2})
	x := tensor.RandNormal(rng, 0, 1, 16, 3)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 2
	}
	y := OneHot(labels, 2)
	tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewSGD(0.1), rng)
	loss := tr.ComputeGrad(x, y)
	grads := net.GradVector()
	if dx := net.Layers[0].(*Dense).dx; dx != nil {
		t.Fatalf("a training step computed the first layer's input gradient %v", dx.Shape())
	}

	ZeroGrads(net.Params())
	lf := NewSoftmaxCrossEntropy()
	full := lf.Forward(net.Forward(x, true), y)
	dx := net.Backward(lf.Backward())
	if math.Float64bits(full) != math.Float64bits(loss) {
		t.Fatalf("loss %v, full backward's %v", loss, full)
	}
	for i, g := range net.GradVector() {
		if math.Float64bits(g) != math.Float64bits(grads[i]) {
			t.Fatalf("gradient %d is %v, full backward's %v", i, grads[i], g)
		}
	}
	if dx == nil || !dx.SameShape(x) {
		t.Fatalf("Network.Backward returned %v, want the input gradient of shape %v", dx, x.Shape())
	}
}
