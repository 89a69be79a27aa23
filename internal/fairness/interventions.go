package fairness

import (
	"math"
	"math/rand"
	"sort"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// TrainWeighted trains a classifier with per-example loss weights (the
// reweighing intervention): each example's gradient contribution is scaled
// by its weight, which restores statistical independence between label and
// protected group without touching the features.
func TrainWeighted(rng *rand.Rand, net *nn.Network, x *tensor.Tensor, labels []int, weights []float64, classes, epochs, batchSize int, lr float64) {
	y := nn.OneHot(labels, classes)
	opt := nn.NewAdam(lr)
	loss := nn.NewSoftmaxCrossEntropy()
	batches := nn.NewBatches(rng, x.Dim(0), batchSize)
	var bx, by *tensor.Tensor // batch buffers
	for epoch := 0; epoch < epochs; epoch++ {
		params := net.Params()
		batches.Epoch(func(idx []int) {
			bx, by = nn.GatherBatchInto(bx, by, x, y, idx)
			nn.ZeroGrads(params)
			out := net.Forward(bx, true)
			loss.Forward(out, by)
			g := loss.Backward()
			// Scale each example's gradient row by its weight.
			cols := g.Dim(1)
			for bi, i := range idx {
				w := weights[i]
				row := g.Row(bi)
				for c := 0; c < cols; c++ {
					row[c] *= w
				}
			}
			net.Backward(g)
			opt.Step(params)
			net.PostStep()
		})
	}
}

// AdversarialConfig controls adversarial debiasing.
type AdversarialConfig struct {
	Encoder   []int   // hidden widths of the shared encoder
	Lambda    float64 // strength of the gradient-reversal penalty
	Epochs    int
	BatchSize int
	LR        float64
}

// AdversarialModel is the trained result: a shared encoder, a task head,
// and the adversary head that was trained to recover the protected
// attribute from the representation.
type AdversarialModel struct {
	Encoder   *nn.Network
	Predictor *nn.Network
	Adversary *nn.Network
}

// TrainAdversarial trains predictor and adversary simultaneously: the
// predictor minimises task loss, the adversary minimises group-recovery
// loss, and the encoder receives the predictor's gradient MINUS λ times the
// adversary's gradient (gradient reversal), scrubbing group information
// from the representation.
func TrainAdversarial(rng *rand.Rand, x *tensor.Tensor, labels, group []int, classes int, cfg AdversarialConfig) *AdversarialModel {
	in := x.Dim(1)
	var encLayers []nn.Layer
	prev := in
	for i, h := range cfg.Encoder {
		encLayers = append(encLayers,
			nn.NewDense(rng, encName("fc", i), prev, h),
			nn.NewReLU(encName("relu", i)))
		prev = h
	}
	m := &AdversarialModel{
		Encoder:   nn.NewNetwork(encLayers...),
		Predictor: nn.NewNetwork(nn.NewDense(rng, "pred.out", prev, classes)),
		Adversary: nn.NewNetwork(
			nn.NewDense(rng, "adv.fc", prev, 8),
			nn.NewReLU("adv.relu"),
			nn.NewDense(rng, "adv.out", 8, 2),
		),
	}
	y := nn.OneHot(labels, classes)
	gy := nn.OneHot(group, 2)
	encOpt := nn.NewAdam(cfg.LR)
	predOpt := nn.NewAdam(cfg.LR)
	advOpt := nn.NewAdam(cfg.LR)
	predLoss := nn.NewSoftmaxCrossEntropy()
	advLoss := nn.NewSoftmaxCrossEntropy()

	batches := nn.NewBatches(rng, x.Dim(0), cfg.BatchSize)
	var bx, by, bg *tensor.Tensor // batch buffers
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Ramp the reversal strength from 0 to Lambda over training (the
		// DANN schedule): the encoder first learns the task, then is
		// progressively scrubbed. Jumping straight to a large Lambda makes
		// the min-max game oscillate.
		progress := float64(epoch) / float64(cfg.Epochs)
		lambda := cfg.Lambda * (2/(1+math.Exp(-5*progress)) - 1)
		encP, predP, advP := m.Encoder.Params(), m.Predictor.Params(), m.Adversary.Params()
		batches.Epoch(func(idx []int) {
			bx, by = nn.GatherBatchInto(bx, by, x, y, idx)
			bg = nn.GatherInto(bg, gy, idx)

			nn.ZeroGrads(encP)
			nn.ZeroGrads(predP)
			nn.ZeroGrads(advP)

			h := m.Encoder.Forward(bx, true)
			// Task head.
			pout := m.Predictor.Forward(h, true)
			predLoss.Forward(pout, by)
			dhPred := m.Predictor.Backward(predLoss.Backward())
			// Adversary head (on the same cached encoder activations the
			// backward pass below will consume once).
			aout := m.Adversary.Forward(h, true)
			advLoss.Forward(aout, bg)
			dhAdv := m.Adversary.Backward(advLoss.Backward())

			// Encoder: task gradient minus λ × adversary gradient.
			dh := dhPred.Clone()
			dh.AxpyInPlace(-lambda, dhAdv)
			m.Encoder.Backward(dh)

			encOpt.Step(encP)
			predOpt.Step(predP)
			advOpt.Step(advP)
		})
	}
	return m
}

func encName(kind string, i int) string { return "enc." + kind + string(rune('0'+i)) }

// PredictTask returns the task predictions of the adversarial model.
func (m *AdversarialModel) PredictTask(x *tensor.Tensor) []int {
	h := m.Encoder.Forward(x, false)
	out := m.Predictor.Forward(h, false)
	preds := make([]int, out.Dim(0))
	for i := range preds {
		preds[i] = out.ArgMaxRow(i)
	}
	return preds
}

// AdversaryAccuracy measures how well a FRESH adversary can recover the
// protected attribute from the (frozen) representation — the leakage
// metric. It trains a probe on the representation and reports its accuracy.
func (m *AdversarialModel) AdversaryAccuracy(rng *rand.Rand, x *tensor.Tensor, group []int, epochs int) float64 {
	h := m.Encoder.Forward(x, false)
	probe := nn.NewMLP(rng, nn.MLPConfig{In: h.Dim(1), Hidden: []int{8}, Out: 2})
	tr := nn.NewTrainer(probe, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(h, nn.OneHot(group, 2), nn.TrainConfig{Epochs: epochs, BatchSize: 32})
	return probe.Accuracy(h, group)
}

// EqualOpportunityThresholds grid-searches per-group decision thresholds on
// positive-class scores to equalise opportunity: it finds the smallest
// achievable TPR gap, then — among all threshold pairs within a small
// tolerance of that gap — returns the most accurate. The tolerance rules
// out the degenerate "accept everyone" corner, which also has zero gap but
// destroys accuracy.
func EqualOpportunityThresholds(scores []float64, labels, group []int) [2]float64 {
	grid := thresholdGrid()
	minGap := math.Inf(1)
	for _, t0 := range grid {
		for _, t1 := range grid {
			r := Evaluate(ApplyThresholds(scores, group, [2]float64{t0, t1}), labels, group)
			if g := r.EqualOpportunityGap(); g < minGap {
				minGap = g
			}
		}
	}
	const tol = 0.02
	bestAcc := -1.0
	var best [2]float64
	for _, t0 := range grid {
		for _, t1 := range grid {
			r := Evaluate(ApplyThresholds(scores, group, [2]float64{t0, t1}), labels, group)
			if r.EqualOpportunityGap() <= minGap+tol && r.Accuracy > bestAcc {
				bestAcc = r.Accuracy
				best = [2]float64{t0, t1}
			}
		}
	}
	return best
}

func thresholdGrid() []float64 {
	g := make([]float64, 0, 41)
	for i := 0; i <= 40; i++ {
		g = append(g, float64(i)/40)
	}
	return g
}

// ApplyThresholds converts scores to 0/1 predictions using each example's
// group threshold.
func ApplyThresholds(scores []float64, group []int, th [2]float64) []int {
	preds := make([]int, len(scores))
	for i, s := range scores {
		if s >= th[group[i]] {
			preds[i] = 1
		}
	}
	return preds
}

// PositiveScores extracts P(class=1) for each row from a trained binary
// classifier.
func PositiveScores(net *nn.Network, x *tensor.Tensor) []float64 {
	probs := nn.Softmax(net.Forward(x, false))
	out := make([]float64, probs.Dim(0))
	for i := range out {
		out[i] = probs.At(i, 1)
	}
	return out
}

// AblateCorrelatedUnits implements the post-training debiasing the tutorial
// cites: it measures each last-hidden-layer unit's correlation with the
// protected attribute and zeroes the outgoing weights of the most
// correlated fraction. Returns the ablated unit indices.
func AblateCorrelatedUnits(net *nn.Network, x *tensor.Tensor, group []int, fraction float64) []int {
	// Locate the final Dense and the activations feeding it.
	lastDense := -1
	for i, l := range net.Layers {
		if _, ok := l.(*nn.Dense); ok {
			lastDense = i
		}
	}
	if lastDense <= 0 {
		panic("fairness: network has no hidden layer to ablate")
	}
	h := x
	for i := 0; i < lastDense; i++ {
		h = net.Layers[i].Forward(h, false)
	}
	units := h.Dim(1)
	corr := make([]float64, units)
	for u := 0; u < units; u++ {
		corr[u] = math.Abs(pointBiserial(h, u, group))
	}
	order := make([]int, units)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return corr[order[a]] > corr[order[b]] })
	k := int(fraction * float64(units))
	ablated := order[:k]
	head := net.Layers[lastDense].(*nn.Dense)
	for _, u := range ablated {
		for j := 0; j < head.Out(); j++ {
			head.W.Value.Data[u*head.Out()+j] = 0
		}
	}
	return ablated
}

// pointBiserial computes the correlation between activation column u and
// the binary group variable.
func pointBiserial(h *tensor.Tensor, u int, group []int) float64 {
	n := h.Dim(0)
	var m0, m1, n0, n1 float64
	for i := 0; i < n; i++ {
		v := h.At(i, u)
		if group[i] == 0 {
			m0 += v
			n0++
		} else {
			m1 += v
			n1++
		}
	}
	if n0 == 0 || n1 == 0 {
		return 0
	}
	m0 /= n0
	m1 /= n1
	var mu, sd float64
	for i := 0; i < n; i++ {
		mu += h.At(i, u)
	}
	mu /= float64(n)
	for i := 0; i < n; i++ {
		d := h.At(i, u) - mu
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(n))
	if sd == 0 {
		return 0
	}
	return (m1 - m0) / sd * math.Sqrt(n0*n1/(float64(n)*float64(n)))
}
