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

// One benchmark per registered experiment — the claims (E1..E32), the
// ablations (A1..A9), and the extensions (X1..X12, X14) — each regenerating its
// table at quick scale, so `go test -bench=E<k>$` reproduces any single
// result and `-bench=.` reproduces them all.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := RunExperiment(id, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced an empty table", id)
		}
	}
}

func BenchmarkE1(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17(b *testing.B) { benchExperiment(b, "E17") }
func BenchmarkE18(b *testing.B) { benchExperiment(b, "E18") }
func BenchmarkE19(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkE20(b *testing.B) { benchExperiment(b, "E20") }
func BenchmarkE21(b *testing.B) { benchExperiment(b, "E21") }
func BenchmarkE22(b *testing.B) { benchExperiment(b, "E22") }
func BenchmarkE23(b *testing.B) { benchExperiment(b, "E23") }
func BenchmarkE24(b *testing.B) { benchExperiment(b, "E24") }
func BenchmarkE25(b *testing.B) { benchExperiment(b, "E25") }
func BenchmarkE26(b *testing.B) { benchExperiment(b, "E26") }
func BenchmarkE27(b *testing.B) { benchExperiment(b, "E27") }
func BenchmarkE28(b *testing.B) { benchExperiment(b, "E28") }
func BenchmarkE29(b *testing.B) { benchExperiment(b, "E29") }
func BenchmarkE30(b *testing.B) { benchExperiment(b, "E30") }
func BenchmarkE31(b *testing.B) { benchExperiment(b, "E31") }
func BenchmarkE32(b *testing.B) { benchExperiment(b, "E32") }

// Ablations A1..A9 — design-choice studies (see DESIGN.md).
func BenchmarkA1(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkA2(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkA3(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkA4(b *testing.B) { benchExperiment(b, "A4") }
func BenchmarkA5(b *testing.B) { benchExperiment(b, "A5") }
func BenchmarkA6(b *testing.B) { benchExperiment(b, "A6") }
func BenchmarkA7(b *testing.B) { benchExperiment(b, "A7") }
func BenchmarkA8(b *testing.B) { benchExperiment(b, "A8") }
func BenchmarkA9(b *testing.B) { benchExperiment(b, "A9") }

// Extensions X1..X12, X14 — cited systems beyond the explicit claims.
func BenchmarkX1(b *testing.B)  { benchExperiment(b, "X1") }
func BenchmarkX2(b *testing.B)  { benchExperiment(b, "X2") }
func BenchmarkX3(b *testing.B)  { benchExperiment(b, "X3") }
func BenchmarkX4(b *testing.B)  { benchExperiment(b, "X4") }
func BenchmarkX5(b *testing.B)  { benchExperiment(b, "X5") }
func BenchmarkX6(b *testing.B)  { benchExperiment(b, "X6") }
func BenchmarkX7(b *testing.B)  { benchExperiment(b, "X7") }
func BenchmarkX8(b *testing.B)  { benchExperiment(b, "X8") }
func BenchmarkX9(b *testing.B)  { benchExperiment(b, "X9") }
func BenchmarkX10(b *testing.B) { benchExperiment(b, "X10") }
func BenchmarkX11(b *testing.B) { benchExperiment(b, "X11") }
func BenchmarkX12(b *testing.B) { benchExperiment(b, "X12") }
func BenchmarkX14(b *testing.B) { benchExperiment(b, "X14") }

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
