package prune

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/nn"
)

func trainedNet(t *testing.T, seed int64) (*nn.Trainer, *data.Dataset, *data.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := data.GaussianMixture(rng, 600, 6, 3, 4)
	train, test := ds.Split(rng, 0.8)
	net := nn.NewMLP(rng, nn.MLPConfig{In: 6, Hidden: []int{32}, Out: 3})
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(train.X, nn.OneHot(train.Labels, 3), nn.TrainConfig{Epochs: 25, BatchSize: 32})
	return tr, train, test
}

// mustPrune unwraps GlobalPrune's error for the in-range sparsities these
// tests use.
func mustPrune(t *testing.T, rng *rand.Rand, net *nn.Network, sparsity float64, crit Criterion) {
	t.Helper()
	if err := GlobalPrune(rng, net, sparsity, crit); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalPruneReachesSparsity(t *testing.T) {
	tr, _, _ := trainedNet(t, 1)
	mustPrune(t, rand.New(rand.NewSource(2)), tr.Net, 0.7, Magnitude)
	if s := Sparsity(tr.Net); math.Abs(s-0.7) > 0.02 {
		t.Fatalf("sparsity %.3f, want ~0.7", s)
	}
}

func TestGlobalPruneZeroesWeights(t *testing.T) {
	tr, _, _ := trainedNet(t, 3)
	mustPrune(t, rand.New(rand.NewSource(4)), tr.Net, 0.5, Magnitude)
	for _, l := range tr.Net.Layers {
		d, ok := l.(*nn.Dense)
		if !ok {
			continue
		}
		m := d.Mask()
		if m == nil {
			t.Fatal("mask not installed")
		}
		for i, v := range m.Data {
			if v == 0 && d.W.Value.Data[i] != 0 {
				t.Fatal("masked weight nonzero")
			}
		}
	}
}

func TestPrunedWeightsStayZeroThroughTraining(t *testing.T) {
	tr, train, _ := trainedNet(t, 5)
	mustPrune(t, rand.New(rand.NewSource(6)), tr.Net, 0.6, Magnitude)
	tr.Fit(train.X, nn.OneHot(train.Labels, 3), nn.TrainConfig{Epochs: 5, BatchSize: 32})
	for _, l := range tr.Net.Layers {
		d, ok := l.(*nn.Dense)
		if !ok {
			continue
		}
		m := d.Mask()
		for i, v := range m.Data {
			if v == 0 && d.W.Value.Data[i] != 0 {
				t.Fatalf("pruned weight %d resurrected to %g", i, d.W.Value.Data[i])
			}
		}
	}
	if s := Sparsity(tr.Net); s < 0.55 {
		t.Fatalf("sparsity decayed to %.3f", s)
	}
}

func TestModeratePruningPreservesAccuracy(t *testing.T) {
	tr, train, test := trainedNet(t, 7)
	base := tr.Net.Accuracy(test.X, test.Labels)
	mustPrune(t, rand.New(rand.NewSource(8)), tr.Net, 0.5, Magnitude)
	// Brief fine-tune, as the technique prescribes.
	tr.Fit(train.X, nn.OneHot(train.Labels, 3), nn.TrainConfig{Epochs: 5, BatchSize: 32})
	pruned := tr.Net.Accuracy(test.X, test.Labels)
	if pruned < base-0.05 {
		t.Fatalf("50%% pruning lost accuracy: %.3f -> %.3f", base, pruned)
	}
}

func TestMagnitudeBeatsRandomAtHighSparsity(t *testing.T) {
	accAfter := func(crit Criterion, seed int64) float64 {
		tr, _, test := trainedNet(t, 11)
		mustPrune(t, rand.New(rand.NewSource(seed)), tr.Net, 0.7, crit)
		// No fine-tune: measure the immediate damage.
		return tr.Net.Accuracy(test.X, test.Labels)
	}
	mag := accAfter(Magnitude, 1)
	randomAvg := (accAfter(Random, 2) + accAfter(Random, 3) + accAfter(Random, 4)) / 3
	if mag <= randomAvg {
		t.Fatalf("magnitude (%.3f) should beat random (%.3f) at 70%% sparsity", mag, randomAvg)
	}
}

func TestSaliencyPruning(t *testing.T) {
	tr, train, test := trainedNet(t, 13)
	tr.ComputeGrad(train.X, nn.OneHot(train.Labels, 3))
	mustPrune(t, rand.New(rand.NewSource(14)), tr.Net, 0.7, Saliency)
	if s := Sparsity(tr.Net); math.Abs(s-0.7) > 0.02 {
		t.Fatalf("saliency sparsity %.3f", s)
	}
	tr.Fit(train.X, nn.OneHot(train.Labels, 3), nn.TrainConfig{Epochs: 5, BatchSize: 32})
	if acc := tr.Net.Accuracy(test.X, test.Labels); acc < 0.85 {
		t.Fatalf("saliency-pruned accuracy %.3f", acc)
	}
}

func TestNonzeroParamBytesShrinks(t *testing.T) {
	tr, _, _ := trainedNet(t, 19)
	before := NonzeroParamBytes(tr.Net)
	mustPrune(t, rand.New(rand.NewSource(20)), tr.Net, 0.9, Magnitude)
	after := NonzeroParamBytes(tr.Net)
	if after >= before/2 {
		t.Fatalf("sparse bytes %d not much below dense %d", after, before)
	}
}

func TestGlobalPruneBadSparsityErrors(t *testing.T) {
	tr, _, _ := trainedNet(t, 21)
	for _, sp := range []float64{1.0, 1.5, -0.1, math.NaN()} {
		if err := GlobalPrune(rand.New(rand.NewSource(1)), tr.Net, sp, Magnitude); err == nil {
			t.Fatalf("sparsity %g accepted", sp)
		}
	}
}
