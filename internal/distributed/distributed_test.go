package distributed

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/invalid"
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

func distDataset(seed int64) (*data.Dataset, *data.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.GaussianMixture(rng, 640, 5, 3, 3.5)
	return ds.Split(rng, 0.8)
}

var distArch = nn.MLPConfig{In: 5, Hidden: []int{24}, Out: 3}

func mustTrain(t *testing.T, seed int64, x, y *tensor.Tensor, cfg Config) (*nn.Network, Stats) {
	t.Helper()
	net, stats, err := Train(seed, x, y, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return net, stats
}

func TestSyncSGDConverges(t *testing.T) {
	train, test := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	net, stats := mustTrain(t, 10, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 20, BatchSize: 16, LR: 0.1, AveragePeriod: 1,
	})
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.85 {
		t.Fatalf("sync SGD accuracy %.3f", acc)
	}
	if stats.BytesSent == 0 || stats.AveragingRound == 0 {
		t.Fatal("no communication recorded")
	}
	if stats.Retransmissions != 0 || stats.Crashes != 0 || stats.Restores != 0 {
		t.Fatalf("fault-free run recorded faults: %+v", stats)
	}
}

func TestConfigErrors(t *testing.T) {
	train, _ := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	if _, _, err := Train(1, train.X, y, Config{Workers: 0, Arch: distArch, Epochs: 1, BatchSize: 16, LR: 0.1}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, _, err := Train(1, train.X, y, Config{Workers: 2, Arch: distArch, Epochs: 1, BatchSize: 0, LR: 0.1}); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if _, _, err := Train(1, train.X, y, Config{Workers: 2, Arch: distArch, Epochs: -1, BatchSize: 16, LR: 0.1}); err == nil {
		t.Fatal("negative epochs accepted")
	}
	if _, _, err := Train(1, train.X, y, Config{Workers: 2, Arch: distArch, Epochs: 1, BatchSize: 16, LR: 0.1, DropSlowestK: 2}); err == nil {
		t.Fatal("DropSlowestK >= workers accepted")
	}
	if _, _, err := Train(1, train.X, y, Config{Workers: 2, Arch: distArch, Epochs: 1, BatchSize: 16, LR: 0.1,
		Fault: fault.Config{Schedule: []fault.Window{{Kind: fault.KindDrop, Prob: 1.5}}}}); err == nil {
		t.Fatal("out-of-range fault probability accepted")
	}
}

// Data the arch cannot take is rejected before any worker starts: a
// worker goroutine that panicked on it would end the caller's process.
func TestNewJobRejectsDataTheArchCannotTake(t *testing.T) {
	train, _ := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	cfg := Config{Workers: 2, Arch: distArch, Epochs: 1, BatchSize: 16, LR: 0.1}
	for _, tc := range []struct {
		name  string
		arch  nn.MLPConfig
		x, y  *tensor.Tensor
		field string
	}{
		{"narrow arch", nn.MLPConfig{In: 4, Hidden: []int{24}, Out: 3}, train.X, y, "Arch.In"},
		{"wide arch", nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3}, train.X, y, "Arch.In"},
		{"x of rank 1", distArch, tensor.New(train.X.Size()), y, "Arch.In"},
		{"extra class", nn.MLPConfig{In: 5, Hidden: []int{24}, Out: 4}, train.X, y, "Arch.Out"},
		{"y one short", distArch, train.X, tensor.FromSlice(y.Data[3:], y.Dim(0)-1, 3), "NewJob"},
	} {
		cfg.Arch = tc.arch
		_, _, err := Train(1, tc.x, tc.y, cfg)
		var ce *invalid.Error
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: got %v, want a *invalid.Error on %s", tc.name, err, tc.field)
		}
	}
}

func TestLocalSGDReducesBytesMonotonically(t *testing.T) {
	train, _ := distDataset(2)
	y := nn.OneHot(train.Labels, 3)
	var prev int64 = math.MaxInt64
	for _, h := range []int{2, 8, 32} {
		_, stats := mustTrain(t, 20, train.X, y, Config{
			Workers: 4, Arch: distArch, Epochs: 10, BatchSize: 16, LR: 0.1, AveragePeriod: h,
		})
		if stats.BytesSent >= prev {
			t.Fatalf("H=%d bytes %d did not shrink (prev %d)", h, stats.BytesSent, prev)
		}
		prev = stats.BytesSent
	}
}

func TestLocalSGDStillLearnsAtLargeH(t *testing.T) {
	train, test := distDataset(3)
	y := nn.OneHot(train.Labels, 3)
	net, _ := mustTrain(t, 30, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 20, BatchSize: 16, LR: 0.1, AveragePeriod: 16,
	})
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.8 {
		t.Fatalf("local SGD H=16 accuracy %.3f", acc)
	}
}

func TestTopKSparsificationSavesBytes(t *testing.T) {
	train, test := distDataset(4)
	y := nn.OneHot(train.Labels, 3)
	_, dense := mustTrain(t, 40, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1, AveragePeriod: 1, TopK: 1,
	})
	netS, sparse := mustTrain(t, 40, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1, AveragePeriod: 1, TopK: 0.05,
	})
	if sparse.BytesSent >= dense.BytesSent/3 {
		t.Fatalf("top-5%% bytes %d vs dense %d: insufficient saving", sparse.BytesSent, dense.BytesSent)
	}
	if acc := netS.Accuracy(test.X, test.Labels); acc < 0.8 {
		t.Fatalf("top-k accuracy %.3f (error feedback should preserve convergence)", acc)
	}
}

func TestQuantizedGradientsSaveBytesAndConverge(t *testing.T) {
	train, test := distDataset(5)
	y := nn.OneHot(train.Labels, 3)
	_, dense := mustTrain(t, 50, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1, AveragePeriod: 1,
	})
	netQ, quant := mustTrain(t, 50, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1, AveragePeriod: 1, QuantBits: 8,
	})
	if quant.BytesSent >= dense.BytesSent {
		t.Fatalf("8-bit gradients should cut bytes: %d vs %d", quant.BytesSent, dense.BytesSent)
	}
	if acc := netQ.Accuracy(test.X, test.Labels); acc < 0.85 {
		t.Fatalf("quantized-gradient accuracy %.3f", acc)
	}
}

// With H=1, no compression, and plain SGD, Local SGD's parameter averaging
// equals sequential big-batch SGD — exact simulator validation.
func TestSyncEqualsSequentialBigBatch(t *testing.T) {
	train, _ := distDataset(6)
	n := train.N() - train.N()%4 // divisible by workers so shards are equal
	tr4 := train.Subset(seqIdx(n))
	y := nn.OneHot(tr4.Labels, 3)

	workers := 4
	perWorker := 8
	net, _ := mustTrain(t, 60, tr4.X, y, Config{
		Workers: workers, Arch: distArch, Epochs: 1, BatchSize: perWorker, LR: 0.05, AveragePeriod: 1,
	})

	// Sequential reference: same init (seed 60), batches formed by
	// concatenating the workers' round-robin shards, big-batch SGD.
	ref := nn.NewMLP(rand.New(rand.NewSource(60)), distArch)
	reftr := nn.NewTrainer(ref, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(0.05), rand.New(rand.NewSource(999)))
	shards := shardIndices(n, workers)
	// Shuffle each shard exactly as Train did: every worker owns an RNG
	// derived from (seed, workerID) and uses it only for its own shard.
	for w := range shards {
		wrng := rand.New(rand.NewSource(fault.WorkerSeed(60, w)))
		wrng.Shuffle(len(shards[w]), func(i, j int) {
			shards[w][i], shards[w][j] = shards[w][j], shards[w][i]
		})
	}
	stepsPerEpoch := (len(shards[0]) + perWorker - 1) / perWorker
	for step := 0; step < stepsPerEpoch; step++ {
		var idx []int
		for w := 0; w < workers; w++ {
			start := (step * perWorker) % len(shards[w])
			end := start + perWorker
			if end > len(shards[w]) {
				end = len(shards[w])
			}
			idx = append(idx, shards[w][start:end]...)
		}
		bx, by := nn.GatherBatchInto(nil, nil, tr4.X, y, idx)
		reftr.Step(bx, by)
	}
	a := net.ParamVector()
	b := ref.ParamVector()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("sync SGD diverges from big-batch SGD at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func seqIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestStepTimeModelPriorityFaster(t *testing.T) {
	arch := nn.MLPConfig{In: 256, Hidden: []int{512, 512, 512}, Out: 10}
	fifo := StepTimeModel(arch, device.EdgeDevice, false)
	prio := StepTimeModel(arch, device.EdgeDevice, true)
	if prio >= fifo {
		t.Fatalf("priority (%.6fs) should beat FIFO (%.6fs)", prio, fifo)
	}
	// Priority can never beat pure compute or pure transfer alone.
	if prio <= 0 {
		t.Fatal("non-positive step time")
	}
}

func TestCompressGradientErrorFeedback(t *testing.T) {
	g := []float64{10, 0.1, 0.2, -9, 0.05}
	res := make([]float64, 5)
	compressGradient(g, res, 0.4, 0) // keep top 2 of 5
	if g[0] != 10 || g[3] != -9 {
		t.Fatalf("top-k should keep the largest: %v", g)
	}
	if g[1] != 0 || g[2] != 0 || g[4] != 0 {
		t.Fatalf("dropped coords should be zero: %v", g)
	}
	if res[1] != 0.1 || res[2] != 0.2 || res[4] != 0.05 {
		t.Fatalf("residual should hold dropped values: %v", res)
	}
	// Next round: residual is added back.
	g2 := []float64{0, 0, 0, 0, 0}
	compressGradient(g2, res, 1, 0)
	if g2[1] != 0.1 || g2[2] != 0.2 {
		t.Fatalf("error feedback not applied: %v", g2)
	}
}

func TestQuantizeInPlaceBounds(t *testing.T) {
	g := []float64{1.0, -0.5, 0.25, 0}
	orig := append([]float64(nil), g...)
	quantizeInPlace(g, 8)
	step := 1.0 / 127
	for i := range g {
		if math.Abs(g[i]-orig[i]) > step/2+1e-12 {
			t.Fatalf("quantization error too large at %d: %g vs %g", i, g[i], orig[i])
		}
	}
}

func TestErrorFeedbackMattersAtAggressiveTopK(t *testing.T) {
	train, test := distDataset(7)
	y := nn.OneHot(train.Labels, 3)
	run := func(noEF bool) float64 {
		net, _ := mustTrain(t, 70, train.X, y, Config{
			Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1,
			AveragePeriod: 1, TopK: 0.01, NoErrorFeedback: noEF,
		})
		return net.Accuracy(test.X, test.Labels)
	}
	withEF := run(false)
	withoutEF := run(true)
	t.Logf("top-1%%: with error feedback %.3f, without %.3f", withEF, withoutEF)
	if withEF < withoutEF {
		t.Fatalf("error feedback should not hurt: %.3f vs %.3f", withEF, withoutEF)
	}
}

func TestCompressGradientNilResidual(t *testing.T) {
	g := []float64{10, 0.1, 0.2, -9, 0.05}
	compressGradient(g, nil, 0.4, 0)
	if g[0] != 10 || g[3] != -9 || g[1] != 0 {
		t.Fatalf("nil-residual compression wrong: %v", g)
	}
}
