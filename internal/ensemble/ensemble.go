// Package ensemble implements the deep-ensemble training strategies from
// Part 1 of the tutorial (§2.1): the train-K-members-from-scratch baseline,
// Snapshot Ensembles (cyclic learning rate, one snapshot per cycle), Fast
// Geometric Ensembles (short high/low cycles around a converged model),
// TreeNets (a shared trunk with K branch heads trained jointly), and
// MotherNets (train a small shared "mother" core once, hatch it into each
// member, then fine-tune briefly). Every trainer reports its total training
// FLOPs so experiments can chart the accuracy-vs-training-cost tradeoff the
// tutorial describes.
package ensemble

import (
	"math/rand"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Committee is anything that produces averaged class probabilities from a
// batch — a list of independent networks or a weight-shared TreeNet.
type Committee interface {
	// PredictProbs returns [batch, classes] averaged probabilities.
	PredictProbs(x *tensor.Tensor) *tensor.Tensor
	// NumParams is the deployed parameter count (shared weights counted
	// once).
	NumParams() int
	// InferenceFLOPs estimates the cost of one averaged prediction pass.
	InferenceFLOPs(batch int) int64
}

// Accuracy measures argmax accuracy of a committee.
func Accuracy(c Committee, x *tensor.Tensor, labels []int) float64 {
	probs := c.PredictProbs(x)
	correct := 0
	for i := range labels {
		if probs.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Ensemble is a committee of independent networks averaging their softmax
// outputs.
type Ensemble struct {
	Members []*nn.Network
}

// PredictProbs implements Committee.
func (e *Ensemble) PredictProbs(x *tensor.Tensor) *tensor.Tensor {
	probs := nn.Softmax(e.Members[0].Forward(x, false))
	for _, m := range e.Members[1:] {
		probs.AddInPlace(nn.Softmax(m.Forward(x, false)))
	}
	probs.ScaleInPlace(1 / float64(len(e.Members)))
	return probs
}

// NumParams implements Committee.
func (e *Ensemble) NumParams() int {
	total := 0
	for _, m := range e.Members {
		total += m.NumParams()
	}
	return total
}

// InferenceFLOPs implements Committee.
func (e *Ensemble) InferenceFLOPs(batch int) int64 {
	var total int64
	for _, m := range e.Members {
		total += m.FLOPs(batch)
	}
	return total
}

// Result bundles a trained committee with its training cost.
type Result struct {
	Committee Committee
	FLOPs     int64 // total training FLOPs
	Steps     int   // total optimizer steps
}

// TrainConfig holds the shared training hyperparameters for all strategies.
type TrainConfig struct {
	K         int // ensemble size
	Arch      nn.MLPConfig
	Epochs    int // epochs for the baseline member (budgets below derive from it)
	BatchSize int
	LR        float64
}

// TrainIndependent trains K members from scratch with different random
// initialisations — the accuracy ceiling and the cost ceiling.
func TrainIndependent(seed int64, x, y *tensor.Tensor, cfg TrainConfig) Result {
	var res Result
	ens := &Ensemble{}
	for k := 0; k < cfg.K; k++ {
		rng := rand.New(rand.NewSource(seed + int64(k)*1009))
		net := nn.NewMLP(rng, cfg.Arch)
		tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(cfg.LR), rng)
		stats := tr.Fit(x, y, nn.TrainConfig{Epochs: cfg.Epochs, BatchSize: cfg.BatchSize})
		res.FLOPs += stats.FLOPs
		res.Steps += stats.Steps
		ens.Members = append(ens.Members, net)
	}
	res.Committee = ens
	return res
}

// TrainSnapshot trains ONE network with a cyclic cosine learning rate for
// the same total epoch budget as a single baseline member and snapshots the
// weights at the end of each of K cycles ("Train 1, Get M for Free").
func TrainSnapshot(seed int64, x, y *tensor.Tensor, cfg TrainConfig) Result {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, cfg.Arch)
	cycleLen := cfg.Epochs / cfg.K
	if cycleLen == 0 {
		cycleLen = 1
	}
	var snapshots []map[string][]float64
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(cfg.LR), rng)
	stats := tr.Fit(x, y, nn.TrainConfig{
		Epochs:    cycleLen * cfg.K,
		BatchSize: cfg.BatchSize,
		Schedule:  nn.CyclicCosineLR(cfg.LR, cycleLen),
		OnEpochEnd: func(epoch int, _ float64) {
			if (epoch+1)%cycleLen == 0 {
				snapshots = append(snapshots, net.StateDict())
			}
		},
	})
	ens := &Ensemble{}
	for i, sd := range snapshots {
		m := nn.NewMLP(rand.New(rand.NewSource(seed+int64(i))), cfg.Arch)
		m.LoadStateDict(sd)
		ens.Members = append(ens.Members, m)
	}
	return Result{Committee: ens, FLOPs: stats.FLOPs, Steps: stats.Steps}
}

// TrainFGE implements Fast Geometric Ensembling: converge one model with
// ~70% of the epoch budget, then run short triangular high/low LR cycles,
// collecting a snapshot at each low point. The snapshots live in a
// connected low-loss region around the converged solution.
func TrainFGE(seed int64, x, y *tensor.Tensor, cfg TrainConfig) Result {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, cfg.Arch)
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(cfg.LR), rng)
	warmEpochs := cfg.Epochs * 7 / 10
	if warmEpochs == 0 {
		warmEpochs = 1
	}
	stats := tr.Fit(x, y, nn.TrainConfig{Epochs: warmEpochs, BatchSize: cfg.BatchSize})
	totalFLOPs := stats.FLOPs
	totalSteps := stats.Steps

	// Short cycles: 2 epochs each, LR oscillating between lr/2 and lr/50.
	const cycle = 2
	var snapshots []map[string][]float64
	for k := 0; k < cfg.K; k++ {
		s := tr.Fit(x, y, nn.TrainConfig{
			Epochs:    cycle,
			BatchSize: cfg.BatchSize,
			Schedule: func(epoch int) float64 {
				if epoch%cycle == 0 {
					return cfg.LR / 2
				}
				return cfg.LR / 50
			},
		})
		totalFLOPs += s.FLOPs
		totalSteps += s.Steps
		snapshots = append(snapshots, net.StateDict())
	}
	ens := &Ensemble{}
	for i, sd := range snapshots {
		m := nn.NewMLP(rand.New(rand.NewSource(seed+int64(i))), cfg.Arch)
		m.LoadStateDict(sd)
		ens.Members = append(ens.Members, m)
	}
	return Result{Committee: ens, FLOPs: totalFLOPs, Steps: totalSteps}
}
