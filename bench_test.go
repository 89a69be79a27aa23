package dlsys

import (
	"fmt"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/db"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/learned"
	"dlsys/internal/nn"
	"dlsys/internal/quant"
	"dlsys/internal/tensor"
)

// must unwraps (value, error) pairs whose arguments are valid by
// construction; a failure is a test bug, so it panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ---- micro-benchmarks for the hot paths underlying the experiments ----

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 0, 1, 128, 128)
	y := tensor.RandNormal(rng, 0, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
	b.SetBytes(128 * 128 * 8 * 2)
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewMLP(rng, nn.MLPConfig{In: 64, Hidden: []int{128, 128}, Out: 10})
	x := tensor.RandNormal(rng, 0, 1, 32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewMLP(rng, nn.MLPConfig{In: 64, Hidden: []int{128, 128}, Out: 10})
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.001), rng)
	x := tensor.RandNormal(rng, 0, 1, 32, 64)
	labels := make([]int, 32)
	y := nn.OneHot(labels, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(x, y)
	}
}

func BenchmarkInt8Inference(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net := nn.NewMLP(rng, nn.MLPConfig{In: 64, Hidden: []int{128, 128}, Out: 10})
	im := quant.CompileIntMLP(net)
	x := tensor.RandNormal(rng, 0, 1, 32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Forward(x)
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	keys := must(data.GenerateKeys(rng, data.Uniform, 100000))
	bt := db.BulkLoadBTree(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Lookup(keys[i%len(keys)])
	}
}

func BenchmarkRMILookup(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	keys := must(data.GenerateKeys(rng, data.Uniform, 100000))
	idx := must(learned.BuildRMI(keys, 512))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Lookup(keys, keys[i%len(keys)])
	}
}

func BenchmarkBloomProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	f := must(db.NewBloom(100000, 0.01))
	keys := must(data.GenerateKeys(rng, data.Uniform, 100000))
	for _, k := range keys {
		f.Add(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(keys[i%len(keys)])
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	codes := make([]uint16, 4096)
	for i := range codes {
		codes[i] = uint16(rng.ExpFloat64() * 4)
	}
	table := quant.BuildHuffman(codes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Encode(codes)
	}
}

// Sanity checks that the facade works; keeps the root package tested, not
// only benchmarked.
func TestFacade(t *testing.T) {
	if got := len(Experiments()); got != 54 {
		t.Fatalf("Experiments() returned %d, want 54 (32 claims + 9 ablations + 13 extensions)", got)
	}
	if got := len(Techniques()); got < 30 {
		t.Fatalf("Techniques() returned %d, want >=30", got)
	}
	if _, err := RunExperiment("E99", false); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	tab, err := RunExperiment("E12", false)
	if err != nil || len(tab.Rows) == 0 {
		t.Fatalf("E12 failed: %v", err)
	}
	if fmt.Sprint(tab.ID) != "E12" {
		t.Fatal("wrong table")
	}
}

func BenchmarkMatMul512Parallel(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandNormal(rng, 0, 1, 512, 512)
	y := tensor.RandNormal(rng, 0, 1, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
	b.SetBytes(512 * 512 * 8 * 2)
}

// BenchmarkFaultyTraining measures the overhead the fault machinery adds
// to distributed training as the injected fault rate grows: rate 0 is the
// fast path (no retries, no snapshots restored), 0.05 and 0.2 pay for
// retransmissions, crash recovery, and straggler handling.
func BenchmarkFaultyTraining(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	ds := data.GaussianMixture(rng, 320, 6, 3, 3.2)
	train, _ := ds.Split(rng, 0.8)
	y := nn.OneHot(train.Labels, 3)
	arch := nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3}
	for _, rate := range []float64{0, 0.05, 0.2} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := distributed.Train(13, train.X, y, distributed.Config{
					Workers: 4, Arch: arch, Epochs: 5, BatchSize: 16, LR: 0.1,
					AveragePeriod: 1, Fault: fault.Rate(14, rate), SnapshotPeriod: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVectorizedQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	tab := db.NewTable("t", "a", "v")
	for i := 0; i < 200000; i++ {
		tab.Append(rng.Float64(), rng.NormFloat64())
	}
	preds := []db.Pred{{Col: "a", Lo: 0.25, Hi: 0.75}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.VectorizedQuery(tab, db.AggMean, "v", preds)
	}
}

func BenchmarkCanopyWarmQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	tab := db.NewTable("t", "x")
	for i := 0; i < 200000; i++ {
		tab.Append(rng.NormFloat64())
	}
	c := must(db.NewCanopy(tab, 512))
	c.Mean("x", 0, 200000) // warm every chunk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 7919) % 100000
		c.Mean("x", lo, lo+90000)
	}
}
