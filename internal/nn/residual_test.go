package nn

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/tensor"
)

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	block := NewResidualMLPBlock(rng, "res", 6)
	x := tensor.RandNormal(rng, 0, 1, 4, 6)
	// Keep ReLU inputs away from the kink.
	for i, v := range x.Data {
		if math.Abs(v) < 0.05 {
			x.Data[i] = 0.1
		}
	}
	checkLayerGradients(t, block, x, 1e-4)
}

func TestResidualIdentityAtZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	block := NewResidualMLPBlock(rng, "res", 5)
	for _, p := range block.Params() {
		p.Value.Zero()
	}
	x := tensor.RandNormal(rng, 0, 1, 3, 5)
	out := block.Forward(x, false)
	if !tensor.Equal(out, x, 0) {
		t.Fatal("zeroed residual block should be the identity")
	}
}

func TestDeepResidualNetTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := data.TwoMoons(rng, 400, 0.08)
	train, test := ds.Split(rng, 0.75)
	layers := []Layer{NewDense(rng, "in", 2, 16), NewReLU("relu-in")}
	for b := 0; b < 6; b++ {
		layers = append(layers, NewResidualMLPBlock(rng, "res"+string(rune('0'+b)), 16))
	}
	layers = append(layers, NewDense(rng, "head", 16, 2))
	net := NewNetwork(layers...)
	tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng)
	tr.Fit(train.X, OneHot(train.Labels, 2), TrainConfig{Epochs: 50, BatchSize: 32})
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.93 {
		t.Fatalf("14-layer residual net accuracy %.3f", acc)
	}
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bad := NewResidual("bad", NewDense(rng, "fc", 4, 7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape change")
		}
	}()
	bad.Forward(tensor.New(2, 4), false)
}

func TestSaveLoadMLPRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := MLPConfig{In: 4, Hidden: []int{8, 8}, Out: 3}
	net := NewMLP(rng, cfg)
	ds := data.GaussianMixture(rng, 200, 4, 3, 3)
	NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng).
		Fit(ds.X, OneHot(ds.Labels, 3), TrainConfig{Epochs: 5, BatchSize: 32})

	blob, err := SaveMLP(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, gotCfg, err := LoadMLP(blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg.In != cfg.In || len(gotCfg.Hidden) != 2 {
		t.Fatalf("config mismatch: %+v", gotCfg)
	}
	x := tensor.RandNormal(rng, 0, 1, 10, 4)
	if !tensor.Equal(net.Forward(x, false), restored.Forward(x, false), 1e-12) {
		t.Fatal("restored network diverges from original")
	}
}

func TestLoadMLPGarbageErrors(t *testing.T) {
	if _, _, err := LoadMLP([]byte("not a snapshot")); err == nil {
		t.Fatal("expected decode error")
	}
}
