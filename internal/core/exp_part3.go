package core

import (
	"fmt"
	"math"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/distill"
	"dlsys/internal/fairness"
	"dlsys/internal/green"
	"dlsys/internal/interpret"
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

func init() {
	register(Experiment{
		ID: "E21", Section: "4.1",
		Title: "Label bias propagates into models; reweighing mitigates",
		Claim: "The demographic-parity gap grows with injected bias; reweighed training shrinks it at small accuracy cost",
		Run:   runE21,
	})
	register(Experiment{
		ID: "E22", Section: "4.1",
		Title: "Adversarial debiasing strips protected attributes",
		Claim: "With the adversarial penalty, a probe recovers the protected attribute barely better than chance",
		Run:   runE22,
	})
	register(Experiment{
		ID: "E23", Section: "4.1",
		Title: "Post-training neuron ablation",
		Claim: "Ablating group-correlated neurons trades accuracy for smaller parity gaps",
		Run:   runE23,
	})
	register(Experiment{
		ID: "E24", Section: "4.1",
		Title: "Per-group threshold post-processing",
		Claim: "Group-specific thresholds drive the TPR gap to ~0",
		Run:   runE24,
	})
	register(Experiment{
		ID: "E25", Section: "4.2",
		Title: "t-SNE vs PCA cluster visualization",
		Claim: "t-SNE preserves nonlinear local structure that linear PCA mixes",
		Run:   runE25,
	})
	register(Experiment{
		ID: "E26", Section: "4.2",
		Title: "LIME local fidelity",
		Claim: "Local linear surrogates are faithful near the input and decay with neighbourhood radius",
		Run:   runE26,
	})
	register(Experiment{
		ID: "E27", Section: "4.2",
		Title: "Global surrogates: trees and distilled students",
		Claim: "Surrogates agree with the network far above chance; distilled students edge out shallow trees",
		Run:   runE27,
	})
	register(Experiment{
		ID: "E28", Section: "4.2",
		Title: "Saliency localises responsible inputs",
		Claim: "Gradient saliency concentrates on the ground-truth discriminative pixels",
		Run:   runE28,
	})
	register(Experiment{
		ID: "E29", Section: "4.2",
		Title: "Model-intermediates store (Mistique-style)",
		Claim: "Quantization + dedup stores activations ~8x smaller than floats with bounded error",
		Run:   runE29,
	})
	register(Experiment{
		ID: "E30", Section: "4.3",
		Title: "Carbon footprint across hardware and regions",
		Claim: "The same training job varies >=10x in gCO2e across placements",
		Run:   runE30,
	})
	register(Experiment{
		ID: "E31", Section: "4.3",
		Title: "Footprint growth with model scale",
		Claim: "Training footprint grows superlinearly with model width (FLOPs x epochs to converge)",
		Run:   runE31,
	})
	register(Experiment{
		ID: "E32", Section: "4.3",
		Title: "Carbon-aware job scheduling",
		Claim: "Filling clean slots first cuts fleet emissions 2-5x at equal throughput",
		Run:   runE32,
	})
}

func censusSplit(scale Scale, bias float64, seed int64) (train, test *data.CensusData) {
	n := 5000
	if scale == Full {
		n = 20000
	}
	rng := rand.New(rand.NewSource(seed))
	c := data.BiasedCensus(rng, data.CensusConfig{N: n, Bias: bias})
	return c.SplitCensus(rng, 0.7)
}

func trainCensus(train *data.CensusData, seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 2})
	t := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	t.Fit(train.X, nn.OneHot(train.Labels, 2), nn.TrainConfig{Epochs: 20, BatchSize: 64})
	return net
}

func runE21(scale Scale) *Table {
	t := &Table{ID: "E21", Title: "Bias vs mitigation", Claim: "gap grows with beta; reweighing shrinks it",
		Columns: []string{"injected_bias", "plain_gap", "plain_acc", "reweighed_gap", "reweighed_acc"}}
	for _, beta := range []float64{0, 0.3, 0.6, 0.9} {
		train, test := censusSplit(scale, beta, 60)
		plain := trainCensus(train, 61)
		rPlain := fairness.Evaluate(plain.Predict(test.X), test.TrueMerit, test.Group)

		rng := rand.New(rand.NewSource(62))
		fair := nn.NewMLP(rng, nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 2})
		w := fairness.Reweigh(train.Labels, train.Group)
		fairness.TrainWeighted(rng, fair, train.X, train.Labels, w, 2, 20, 64, 0.01)
		rFair := fairness.Evaluate(fair.Predict(test.X), test.TrueMerit, test.Group)
		t.AddRow(beta, rPlain.DemographicParityGap(), rPlain.Accuracy,
			rFair.DemographicParityGap(), rFair.Accuracy)
	}
	t.Shape = "plain gap rises with beta; reweighed gap consistently lower at small accuracy cost"
	return t
}

func runE22(scale Scale) *Table {
	train, test := censusSplit(scale, 0.5, 63)
	t := &Table{ID: "E22", Title: "Adversarial debiasing", Claim: "probe accuracy approaches chance",
		Columns: []string{"lambda", "probe_accuracy(mean/3 seeds)", "task_accuracy"}}
	// Adversarial min-max training is notoriously seed-sensitive; average a
	// few runs so the lambda trend is visible through the noise.
	const seeds = 3
	for _, lambda := range []float64{0, 0.5, 1.5, 3} {
		var probe, task float64
		for s := int64(0); s < seeds; s++ {
			m := fairness.TrainAdversarial(rand.New(rand.NewSource(64+s)), train.X, train.Labels, train.Group, 2,
				fairness.AdversarialConfig{Encoder: []int{16, 8}, Lambda: lambda, Epochs: 20, BatchSize: 64, LR: 0.01})
			probe += m.AdversaryAccuracy(rand.New(rand.NewSource(65+s)), test.X, test.Group, 20)
			task += accuracy(m.PredictTask(test.X), test.Labels)
		}
		t.AddRow(lambda, probe/seeds, task/seeds)
	}
	t.Shape = "probe accuracy drops substantially for every lambda>0 versus lambda=0 (min-max training is noisy in lambda); task accuracy dips mildly"
	return t
}

func accuracy(preds, labels []int) float64 {
	c := 0
	for i := range preds {
		if preds[i] == labels[i] {
			c++
		}
	}
	return float64(c) / float64(len(preds))
}

func runE23(scale Scale) *Table {
	t := &Table{ID: "E23", Title: "Neuron ablation", Claim: "gap shrinks as correlated units are removed",
		Columns: []string{"ablated_frac", "parity_gap", "accuracy"}}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
		train, test := censusSplit(scale, 0.8, 66)
		net := trainCensus(train, 67)
		if frac > 0 {
			fairness.AblateCorrelatedUnits(net, train.X, train.Group, frac)
		}
		r := fairness.Evaluate(net.Predict(test.X), test.TrueMerit, test.Group)
		t.AddRow(frac, r.DemographicParityGap(), r.Accuracy)
	}
	t.Shape = "heavier ablation reduces the gap while accuracy decays"
	return t
}

func runE24(scale Scale) *Table {
	train, test := censusSplit(scale, 0.8, 68)
	net := trainCensus(train, 69)
	scores := fairness.PositiveScores(net, test.X)
	t := &Table{ID: "E24", Title: "Threshold post-processing", Claim: "per-group thresholds equalise opportunity",
		Columns: []string{"policy", "tpr_gap", "parity_gap", "accuracy"}}
	single := fairness.ApplyThresholds(scores, test.Group, [2]float64{0.5, 0.5})
	rs := fairness.Evaluate(single, test.TrueMerit, test.Group)
	t.AddRow("single-threshold", rs.EqualOpportunityGap(), rs.DemographicParityGap(), rs.Accuracy)
	th := fairness.EqualOpportunityThresholds(scores, test.TrueMerit, test.Group)
	adj := fairness.ApplyThresholds(scores, test.Group, th)
	ra := fairness.Evaluate(adj, test.TrueMerit, test.Group)
	t.AddRow(fmt.Sprintf("per-group %v", th), ra.EqualOpportunityGap(), ra.DemographicParityGap(), ra.Accuracy)
	t.Shape = "per-group thresholds drive the TPR gap to ~0"
	return t
}

func runE25(scale Scale) *Table {
	n := 150
	if scale == Full {
		n = 400
	}
	rng := rand.New(rand.NewSource(70))
	// Nonlinear rings lifted to 20 dimensions.
	raw := tensor.New(n, 20)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		r := 1 + 2*float64(c) + 0.05*rng.NormFloat64()
		theta := 2 * math.Pi * rng.Float64()
		a, b := r*math.Cos(theta), r*math.Sin(theta)
		for j := 0; j < 20; j++ {
			raw.Set(math.Sin(a*float64(j+1)/3)+math.Cos(b*float64(j+1)/4), i, j)
		}
	}
	t := &Table{ID: "E25", Title: "t-SNE vs PCA vs Isomap vs LLE", Claim: "nonlinear methods separate nonlinear clusters",
		Columns: []string{"method", "same_class_nbr_frac", "nbr_preservation"}}
	add := func(name string, emb *tensor.Tensor) {
		t.AddRow(name, interpret.SameClassNeighborFraction(emb, labels, 8),
			interpret.NeighborPreservation(raw, emb, 8))
	}
	add("pca", interpret.PCA(raw, 2))
	add("isomap", interpret.Isomap(raw, 10, 2))
	add("lle", interpret.LLE(raw, 10, 2))
	add("t-sne", interpret.TSNE(raw, interpret.TSNEConfig{Perplexity: 15, Iters: 300, LR: 50, Seed: 71}))
	t.Shape = "t-SNE purity clearly above the rest; Isomap edges PCA and LLE is comparable on this data — local-similarity preservation (t-SNE) is what separates these clusters"
	return t
}

func runE26(scale Scale) *Table {
	train, test, cfg, epochs := benchData(scale, 72)
	// A smooth (tanh) classifier: ReLU nets are piecewise linear with
	// scale-free kinks, which caps local fidelity even for tiny radii; a
	// smooth surface shows the radius-decay shape cleanly.
	rng := rand.New(rand.NewSource(73))
	net := nn.NewNetwork(
		nn.NewDenseXavier(rng, "fc0", cfg.In, 32),
		nn.NewTanh("tanh0"),
		nn.NewDenseXavier(rng, "fc1", 32, cfg.Out),
	)
	nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng).
		Fit(train.X, nn.OneHot(train.Labels, cfg.Out), nn.TrainConfig{Epochs: epochs, BatchSize: 32})
	// Least-confident test row: the interesting boundary case.
	probs := nn.Softmax(net.Forward(test.X, false))
	row, conf := 0, math.Inf(1)
	for i := 0; i < probs.Dim(0); i++ {
		if c := probs.Row(i)[probs.ArgMaxRow(i)]; c < conf {
			conf, row = c, i
		}
	}
	class := net.Predict(test.X)[row]
	t := &Table{ID: "E26", Title: "LIME fidelity", Claim: "fidelity decays with radius",
		Columns: []string{"sigma", "kernel_width", "fidelity"}}
	for _, sigma := range []float64{0.1, 0.3, 1.0, 3.0} {
		exp := interpret.LIME(rand.New(rand.NewSource(74)), net, test.X.Row(row), class,
			interpret.LIMEConfig{Samples: 800, KernelWidth: 2 * sigma, Sigma: sigma})
		t.AddRow(sigma, 2*sigma, exp.Fidelity)
	}
	t.Shape = "fidelity near 1 locally, decaying as the neighbourhood grows"
	return t
}

func runE27(scale Scale) *Table {
	train, test, cfg, epochs := benchData(scale, 75)
	net := trainRef(train, cfg, epochs, 76)
	t := &Table{ID: "E27", Title: "Global surrogates", Claim: "agreement far above chance",
		Columns: []string{"surrogate", "agreement_with_network"}}
	tree := interpret.TreeSurrogate(net, train.X, cfg.Out, 6)
	t.AddRow("decision-tree(d<=6)", interpret.AgreementTree(net, tree, test.X))
	student := nn.NewMLP(rand.New(rand.NewSource(77)), nn.MLPConfig{In: cfg.In, Hidden: []int{8}, Out: cfg.Out})
	distill.Distill(rand.New(rand.NewSource(78)), net, student, train.X,
		nn.OneHot(train.Labels, cfg.Out), distill.Config{Alpha: 0.1, T: 3, Epochs: epochs, BatchSize: 32, LR: 0.01})
	t.AddRow("distilled-student(w=8)", distill.Agreement(net, student, test.X))
	t.AddRow("chance", 1.0/float64(cfg.Out))
	t.Shape = "both surrogates agree >>> chance; student typically edges out the shallow tree"
	return t
}

func runE28(scale Scale) *Table {
	n := 240
	if scale == Full {
		n = 480
	}
	rng := rand.New(rand.NewSource(79))
	ds, masks := data.SyntheticDigits(rng, data.DigitsConfig{N: n})
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := nn.NewNetwork(
		nn.NewConv2D(rng, "c1", g, 4),
		nn.NewReLU("r1"),
		nn.NewFlatten("f"),
		nn.NewDense(rng, "out", 4*64, 4),
	)
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.005), rng)
	tr.Fit(ds.X, nn.OneHot(ds.Labels, 4), nn.TrainConfig{Epochs: 50, BatchSize: 16})

	t := &Table{ID: "E28", Title: "Saliency localization", Claim: "attribution concentrates on the glyph",
		Columns: []string{"class", "glyph_area_frac", "saliency_mass", "concentration"}}
	for c := 0; c < 4; c++ {
		var mass float64
		count := 0
		for i := c; i < 60; i += 4 {
			x := tensor.FromSlice(append([]float64(nil), ds.X.Data[i*64:(i+1)*64]...), 1, 1, 8, 8)
			sal := interpret.Saliency(net, x, ds.Labels[i])
			mass += interpret.SaliencyMass(sal, masks[c])
			count++
		}
		mass /= float64(count)
		area := 0
		for _, m := range masks[c] {
			if m {
				area++
			}
		}
		frac := float64(area) / 64
		t.AddRow(c, frac, mass, mass/frac)
	}
	t.Shape = "concentration ratio > 1 for every class, averaging well above 1.5"
	return t
}

func runE29(scale Scale) *Table {
	return runModelstoreExperiment(scale)
}

func runE30(scale Scale) *Table {
	t := &Table{ID: "E30", Title: "Footprint by placement", Claim: ">=10x spread across placements",
		Columns: []string{"device", "region", "hours", "kwh", "gco2e"}}
	flops := int64(1e18)
	for _, prof := range []device.Profile{device.GPULarge, device.GPUSmall, device.TPULike} {
		for _, region := range []green.Region{green.Hydro, green.MixedUS, green.CoalHeavy} {
			fp := green.Estimate(flops, prof, region, 0.5)
			t.AddRow(prof.Name, region.Name, fp.Hours, fp.EnergyKWh, fp.CO2Grams)
		}
	}
	t.Shape = "gCO2e spans well over an order of magnitude across placements"
	return t
}

func runE31(scale Scale) *Table {
	train, _, cfg, epochs := benchData(scale, 80)
	y := nn.OneHot(train.Labels, cfg.Out)
	t := &Table{ID: "E31", Title: "Footprint vs model scale", Claim: "superlinear growth in width",
		Columns: []string{"width", "params", "train_gflops", "gco2e_mixed_us"}}
	for _, w := range []int{16, 32, 64, 128} {
		arch := nn.MLPConfig{In: cfg.In, Hidden: []int{w, w}, Out: cfg.Out}
		rng := rand.New(rand.NewSource(81))
		net := nn.NewMLP(rng, arch)
		tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
		stats := tr.Fit(train.X, y, nn.TrainConfig{Epochs: epochs, BatchSize: 32})
		fp := green.Estimate(stats.FLOPs*1e6, device.GPUSmall, green.MixedUS, 0.5) // scaled to datacenter-size runs
		t.AddRow(w, net.NumParams(), float64(stats.FLOPs)/1e9, fp.CO2Grams)
	}
	t.Shape = "gCO2e grows faster than linearly in width (params grow ~quadratically)"
	return t
}

func runE32(scale Scale) *Table {
	jobs := make([]green.Job, 12)
	for i := range jobs {
		jobs[i] = green.Job{Name: fmt.Sprintf("train-%d", i), FLOPs: 1e17}
	}
	slots := []green.Slot{
		{Device: device.GPULarge, Region: green.CoalHeavy, CapacityHours: 1000},
		{Device: device.GPULarge, Region: green.Hydro, CapacityHours: 1000},
		{Device: device.GPUSmall, Region: green.MixedUS, CapacityHours: 1000},
		{Device: device.TPULike, Region: green.WindSolar, CapacityHours: 1000},
	}
	_, naive := green.ScheduleNaive(jobs, slots)
	_, aware := green.ScheduleCarbonAware(jobs, slots)
	t := &Table{ID: "E32", Title: "Carbon-aware scheduling", Claim: "2-5x CO2 cut at equal throughput",
		Columns: []string{"scheduler", "total_gco2e", "vs_naive"}}
	t.AddRow("naive-round-robin", naive, 1.0)
	t.AddRow("carbon-aware", aware, aware/naive)
	t.Shape = "carbon-aware total well below half of naive"
	return t
}

// runModelstoreExperiment lives in its own function so exp_part3.go stays
// within the fairness/interpret/green import set; see exp_modelstore.go.
