package quant

import (
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/nn"
)

func trainF32TestMLP(t *testing.T) (*nn.Network, *data.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	ds := data.GaussianMixture(rng, 800, 8, 4, 2.5)
	net := nn.NewMLP(rng, nn.MLPConfig{In: 8, Hidden: []int{16}, Out: 4})
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(ds.X, nn.OneHot(ds.Labels, 4), nn.TrainConfig{Epochs: 10, BatchSize: 32})
	return net, ds
}

func TestF32MLPTracksFullModel(t *testing.T) {
	net, ds := trainF32TestMLP(t)
	f32 := CompileF32MLP(net)
	fullAcc := net.Accuracy(ds.X, ds.Labels)
	f32Acc := f32.Accuracy(ds.X, ds.Labels)
	if f32Acc < fullAcc-0.02 {
		t.Fatalf("f32 accuracy %g fell more than noise below full %g", f32Acc, fullAcc)
	}
	// Predictions should agree on nearly every row: float32 rounding only
	// flips argmaxes that were already near-ties.
	full := net.Predict(ds.X)
	fp := f32.Predict(ds.X)
	disagree := 0
	for i := range full {
		if full[i] != fp[i] {
			disagree++
		}
	}
	if disagree > len(full)/50 {
		t.Fatalf("f32 disagrees with full on %d/%d rows", disagree, len(full))
	}
}

func TestF32MLPBytesHalved(t *testing.T) {
	net, _ := trainF32TestMLP(t)
	f32 := CompileF32MLP(net)
	// Half the float64 in-memory model; identical to the fp32 pricing the
	// serving cost model already charges the full tier.
	if got := f32.Bytes(); got != net.ParamBytes(64)/2 || got != net.ParamBytes(32) {
		t.Fatalf("f32 bytes %d, want %d", got, net.ParamBytes(32))
	}
}

func TestCompileF32MLPRejectsUnsupportedLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(nn.NewDense(rng, "fc0", 4, 4), nn.NewSigmoid("sig0"), nn.NewDense(rng, "fc1", 4, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-Dense/ReLU network")
		}
	}()
	CompileF32MLP(net)
}
