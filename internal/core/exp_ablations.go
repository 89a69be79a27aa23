package core

import (
	"fmt"
	"math"
	"math/rand"

	"dlsys/internal/checkpoint"
	"dlsys/internal/data"
	"dlsys/internal/db"
	"dlsys/internal/distill"
	"dlsys/internal/distributed"
	"dlsys/internal/ensemble"
	"dlsys/internal/fairness"
	"dlsys/internal/learned"
	"dlsys/internal/nn"
	"dlsys/internal/quant"
)

// The A-series ablates the design choices DESIGN.md calls out: why error
// feedback, why mixed precision, why DP checkpoint placement, which
// temperature, how many RMI leaves, how large a snapshot cycle, which
// fairness pre-processing.

func init() {
	register(Experiment{
		ID: "A1", Section: "2.1",
		Title: "Ablation: mixed-precision vs uniform quantization at equal budget",
		Claim: "Spending a byte budget unevenly across layers (sensitivity-driven) matches or beats the best uniform width",
		Run:   runA1,
	})
	register(Experiment{
		ID: "A2", Section: "2.1",
		Title: "Ablation: error feedback for top-k gradient compression",
		Claim: "Without the error-feedback residual, aggressive sparsification loses information and accuracy",
		Run:   runA2,
	})
	register(Experiment{
		ID: "A3", Section: "2.1",
		Title: "Ablation: distillation temperature",
		Claim: "Moderate temperatures (2-5) transfer dark knowledge best; T=1 reduces to hard labels",
		Run:   runA3,
	})
	register(Experiment{
		ID: "A4", Section: "3",
		Title: "Ablation: RMI second-level model count",
		Claim: "More leaves shrink search windows at linear memory cost — the index's central tuning knob",
		Run:   runA4,
	})
	register(Experiment{
		ID: "A5", Section: "2.3",
		Title: "Ablation: checkpointing strategies across network depth",
		Claim: "Store-all memory grows linearly with depth, sqrt(n) sublinearly; the DP plan dominates at every depth",
		Run:   runA5,
	})
	register(Experiment{
		ID: "A6", Section: "3",
		Title: "Ablation: Bloom filter bits/key vs false-positive rate",
		Claim: "Measured FPR tracks the theoretical (1-e^{-kn/m})^k curve",
		Run:   runA6,
	})
	register(Experiment{
		ID: "A7", Section: "2.1",
		Title: "Ablation: snapshot-ensemble cycle length",
		Claim: "Too-short cycles yield correlated snapshots; the budget divides best into a handful of cycles",
		Run:   runA7,
	})
	register(Experiment{
		ID: "A9", Section: "2",
		Title: "Ablation: vectorized vs tuple-at-a-time query execution",
		Claim: "Batch (vectorized) execution removes per-tuple interpretation overhead — the DB technique the tutorial proposes carrying into DL pipelines",
		Run:   runA9,
	})
	register(Experiment{
		ID: "A8", Section: "4.1",
		Title: "Ablation: reweighing vs preferential sampling",
		Claim: "Weight-based and sampling-based pre-processing achieve similar parity gains",
		Run:   runA8,
	})
}

func runA1(scale Scale) *Table {
	rng := rand.New(rand.NewSource(101))
	ds := data.GaussianMixture(rng, 2000, 6, 3, 2.5)
	train, test := ds.Split(rng, 0.6)
	cfg := nn.MLPConfig{In: 6, Hidden: []int{32, 32}, Out: 3}
	net := nn.NewMLP(rng, cfg)
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(train.X, nn.OneHot(train.Labels, 3), nn.TrainConfig{Epochs: 30, BatchSize: 32})

	t := &Table{ID: "A1", Title: "Mixed vs uniform precision", Claim: "mixed >= uniform at equal budget",
		Columns: []string{"budget_frac_of_8bit", "mixed_acc", "uniform_acc", "mixed_bytes", "uniform_bytes"}}
	full := quant.UniformAssignment(net, 8).Bytes(net)
	for _, frac := range []float64{0.6, 0.45, 0.3} {
		budget := int64(float64(full) * frac)
		mAcc, uAcc, mB, uB, err := quant.MixedVsUniform(
			rand.New(rand.NewSource(102)), net, cfg, nn.NewSoftmaxCrossEntropy(),
			train.X, nn.OneHot(train.Labels, 3), test.X, test.Labels, budget, []int{8, 4, 2})
		if err != nil {
			t.AddRow(frac, "err", "err", 0, 0)
			continue
		}
		t.AddRow(frac, mAcc, uAcc, mB, uB)
	}
	t.Shape = "mixed accuracy >= uniform (within noise) at every budget; clearly ahead at tight budgets"
	return t
}

func runA2(scale Scale) *Table {
	train, test, cfg, epochs := benchData(scale, 103)
	y := nn.OneHot(train.Labels, cfg.Out)
	t := &Table{ID: "A2", Title: "Error feedback ablation", Claim: "EF preserves convergence under sparsity",
		Columns: []string{"topk", "with_ef_acc", "without_ef_acc"}}
	for _, topK := range []float64{0.10, 0.02, 0.005} {
		run := func(noEF bool) float64 {
			net, _, err := distributed.Train(104, train.X, y, distributed.Config{
				Workers: 4, Arch: cfg, Epochs: epochs, BatchSize: 16, LR: 0.1,
				AveragePeriod: 1, TopK: topK, NoErrorFeedback: noEF,
			})
			if err != nil {
				return math.NaN()
			}
			return net.Accuracy(test.X, test.Labels)
		}
		t.AddRow(fmt.Sprintf("%.1f%%", topK*100), run(false), run(true))
	}
	t.Shape = "with-EF accuracy >= without-EF, and the gap grows as top-k tightens"
	return t
}

func runA3(scale Scale) *Table {
	rng := rand.New(rand.NewSource(105))
	n := 1200
	if scale == Full {
		n = 4800
	}
	ds := data.GaussianMixture(rng, n, 8, 4, 2.2)
	train, test := ds.Split(rng, 0.8)
	cfg := nn.MLPConfig{In: 8, Hidden: []int{64, 64}, Out: 4}
	teacher := trainRef(train, cfg, 40, 106)
	teacherHard := nn.OneHot(teacher.Predict(train.X), cfg.Out)

	t := &Table{ID: "A3", Title: "Distillation temperature", Claim: "moderate T transfers best",
		Columns: []string{"T", "student_acc", "teacher_agreement"}}
	for _, T := range []float64{1, 2, 3, 5, 10} {
		student := nn.NewMLP(rand.New(rand.NewSource(107)), nn.MLPConfig{In: 8, Hidden: []int{8}, Out: 4})
		distill.Distill(rand.New(rand.NewSource(108)), teacher, student, train.X, teacherHard, distill.Config{
			Alpha: 0.2, T: T, Epochs: 40, BatchSize: 32, LR: 0.01,
		})
		t.AddRow(T, student.Accuracy(test.X, test.Labels), distill.Agreement(teacher, student, test.X))
	}
	t.Shape = "agreement/accuracy peak at moderate temperatures"
	return t
}

func runA4(scale Scale) *Table {
	n := 100000
	if scale == Full {
		n = 500000
	}
	rng := rand.New(rand.NewSource(109))
	keys, err := data.GenerateKeys(rng, data.Lognormal, n)
	if err != nil {
		panic(err) // supported distribution
	}
	t := &Table{ID: "A4", Title: "RMI leaves", Claim: "leaves trade memory for window size",
		Columns: []string{"leaves", "memory_bytes", "max_window", "all_found"}}
	for _, leaves := range []int{8, 64, 512, 4096} {
		idx, err := learned.BuildRMI(keys, leaves)
		if err != nil {
			panic(err) // keys generated non-empty, leaves positive
		}
		found := true
		for i := 0; i < len(keys); i += 997 {
			if _, ok := idx.Lookup(keys, keys[i]); !ok {
				found = false
				break
			}
		}
		t.AddRow(leaves, idx.MemoryBytes(), idx.MaxSearchWindow(), found)
	}
	t.Shape = "memory grows ~linearly in leaves while the worst search window shrinks"
	return t
}

func runA5(scale Scale) *Table {
	t := &Table{ID: "A5", Title: "Checkpointing vs depth", Claim: "sqrt memory scaling; DP dominates",
		Columns: []string{"depth", "store_all_kfloats", "sqrt_kfloats", "dp_same_budget_kfloats", "sqrt_recompute_frac", "dp_recompute_frac"}}
	for _, blocks := range []int{8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(110))
		var layers []nn.Layer
		width := 32
		for i := 0; i < blocks; i++ {
			layers = append(layers,
				nn.NewDense(rng, fmt.Sprintf("fc%d", i), width, width),
				nn.NewReLU(fmt.Sprintf("relu%d", i)))
		}
		layers = append(layers, nn.NewDense(rng, "head", width, 4))
		net := nn.NewNetwork(layers...)
		cm := checkpoint.FromNetwork(net, []int{width}, 16)
		var fwd int64
		for _, c := range cm.Costs {
			fwd += c
		}
		all := checkpoint.StoreAll(len(net.Layers))
		sq := checkpoint.SqrtN(len(net.Layers))
		dp, ok := cm.OptimalPlan(cm.PeakMemory(sq))
		if !ok {
			t.AddRow(blocks, "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(blocks,
			float64(cm.PeakMemory(all))/1e3,
			float64(cm.PeakMemory(sq))/1e3,
			float64(cm.PeakMemory(dp))/1e3,
			float64(cm.RecomputeFLOPs(sq))/float64(fwd),
			float64(cm.RecomputeFLOPs(dp))/float64(fwd))
	}
	t.Shape = "store-all grows ~linearly with depth, sqrt(n) sublinearly; DP recompute <= sqrt recompute at the same peak"
	return t
}

func runA6(scale Scale) *Table {
	rng := rand.New(rand.NewSource(111))
	nKeys := 20000
	keys, err := data.GenerateKeys(rng, data.Uniform, nKeys)
	if err != nil {
		panic(err) // supported distribution
	}
	absent := data.NegativeKeys(rng, keys, 40000)
	t := &Table{ID: "A6", Title: "Bloom bits/key vs FPR", Claim: "measured tracks theory",
		Columns: []string{"bits_per_key", "k_hashes", "measured_fpr", "theoretical_fpr"}}
	for _, bpk := range []float64{4, 8, 12, 16} {
		m := uint64(bpk * float64(nKeys))
		k := int(math.Round(bpk * math.Ln2))
		if k < 1 {
			k = 1
		}
		f := db.NewBloomBits(m, k)
		for _, key := range keys {
			f.Add(key)
		}
		theory := math.Pow(1-math.Exp(-float64(k)*float64(nKeys)/float64(m)), float64(k))
		t.AddRow(bpk, k, f.MeasuredFPR(absent), theory)
	}
	t.Shape = "measured FPR within ~2x of the analytic curve at every bits/key point"
	return t
}

func runA7(scale Scale) *Table {
	// A hard task (heavy class overlap) with a tight epoch budget, so that
	// cycle length visibly matters.
	rng := rand.New(rand.NewSource(112))
	n := 900
	if scale == Full {
		n = 3600
	}
	ds := data.GaussianMixture(rng, n, 8, 6, 1.5)
	train, test := ds.Split(rng, 0.8)
	cfg := nn.MLPConfig{In: 8, Hidden: []int{32, 32}, Out: 6}
	y := nn.OneHot(train.Labels, 6)
	t := &Table{ID: "A7", Title: "Snapshot cycle length", Claim: "cycle length controls snapshot diversity",
		Columns: []string{"cycles(K)", "epochs_per_cycle", "accuracy", "mean_pairwise_disagreement"}}
	totalEpochs := 24
	for _, k := range []int{2, 4, 8, 24} {
		res := ensemble.TrainSnapshot(113, train.X, y, ensemble.TrainConfig{
			K: k, Arch: cfg, Epochs: totalEpochs, BatchSize: 32, LR: 0.02,
		})
		members := res.Committee.(*ensemble.Ensemble).Members
		var dis float64
		pairs := 0
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				dis += 1 - distill.Agreement(members[i], members[j], test.X)
				pairs++
			}
		}
		if pairs > 0 {
			dis /= float64(pairs)
		}
		t.AddRow(k, totalEpochs/k, ensemble.Accuracy(res.Committee, test.X, test.Labels), dis)
	}
	t.Shape = "shorter cycles (more snapshots) raise pairwise disagreement — they reach back into the early, weaker trajectory — while ensemble accuracy stays flat: diversity from under-converged members does not pay"
	return t
}

func runA8(scale Scale) *Table {
	train, test := censusSplit(scale, 0.8, 114)
	t := &Table{ID: "A8", Title: "Reweighing vs sampling", Claim: "both pre-processing routes shrink the gap",
		Columns: []string{"method", "parity_gap", "accuracy_on_merit"}}

	base := trainCensus(train, 115)
	r := fairness.Evaluate(base.Predict(test.X), test.TrueMerit, test.Group)
	t.AddRow("none", r.DemographicParityGap(), r.Accuracy)

	rng := rand.New(rand.NewSource(116))
	rw := nn.NewMLP(rng, nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 2})
	fairness.TrainWeighted(rng, rw, train.X, train.Labels, fairness.Reweigh(train.Labels, train.Group), 2, 20, 64, 0.01)
	r = fairness.Evaluate(rw.Predict(test.X), test.TrueMerit, test.Group)
	t.AddRow("reweighing", r.DemographicParityGap(), r.Accuracy)

	idx := fairness.PreferentialSample(rng, train.Labels, train.Group)
	res := train.Subset(idx)
	resLabels := make([]int, len(idx))
	for i, j := range idx {
		resLabels[i] = train.Labels[j]
	}
	ps := nn.NewMLP(rng, nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 2})
	nn.NewTrainer(ps, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng).
		Fit(res.X, nn.OneHot(resLabels, 2), nn.TrainConfig{Epochs: 20, BatchSize: 64})
	r = fairness.Evaluate(ps.Predict(test.X), test.TrueMerit, test.Group)
	t.AddRow("preferential-sampling", r.DemographicParityGap(), r.Accuracy)
	t.Shape = "both interventions land far below the unmitigated gap with similar accuracy"
	return t
}

func runA9(scale Scale) *Table {
	rng := rand.New(rand.NewSource(117))
	n := 200000
	if scale == Full {
		n = 1000000
	}
	tab := db.NewTable("t", "a", "b", "v")
	for i := 0; i < n; i++ {
		tab.Append(rng.Float64(), rng.Float64(), rng.NormFloat64())
	}
	preds := []db.Pred{{Col: "a", Lo: 0.2, Hi: 0.8}, {Col: "b", Lo: 0.2, Hi: 0.8}}
	t := &Table{ID: "A9", Title: "Vectorized execution", Claim: "batching removes per-tuple overhead",
		Columns: []string{"engine", "answer_mean"}}
	vAns, err := db.VectorizedQuery(tab, db.AggMean, "v", preds)
	if err != nil {
		panic(err) // fixed valid query
	}
	tAns, err := db.TupleAtATimeQuery(tab, db.AggMean, "v", preds)
	if err != nil {
		panic(err) // fixed valid query
	}
	t.AddRow("vectorized", vAns)
	t.AddRow("tuple-at-a-time", tAns)
	t.Shape = "identical answers from both engines; internal/db's TestVectorizedFasterThanTupleAtATime holds the per-query speed claim (same predicates, 400k rows)"
	return t
}
