// Package distill implements knowledge distillation (§2.1): transferring
// the function learned by a large teacher network into a smaller student by
// training the student against the teacher's temperature-softened output
// distribution (Hinton et al.).
package distill

import (
	"math/rand"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Config controls a distillation run.
type Config struct {
	// Alpha weighs the hard-label loss; (1-Alpha) weighs the soft
	// teacher-matching loss. Typical: 0.1-0.5.
	Alpha float64
	// T is the softmax temperature for the soft targets. Typical: 2-5.
	T         float64
	Epochs    int
	BatchSize int
	LR        float64
}

// Distill trains student to mimic teacher on inputs x with hard labels y
// (one-hot). The teacher is only used for inference. Returns training stats.
func Distill(rng *rand.Rand, teacher, student *nn.Network, x, y *tensor.Tensor, cfg Config) nn.TrainStats {
	// The teacher is frozen, so its soft targets are computed once.
	soft := nn.SoftmaxTemperature(teacher.Forward(x, false), cfg.T)
	loss := nn.NewDistillLoss(cfg.Alpha, cfg.T)
	opt := nn.NewAdam(cfg.LR)
	batches := nn.NewBatches(rng, x.Dim(0), cfg.BatchSize)
	bs := int64(batches.Size())
	var stats nn.TrainStats
	var bx, by, bsoft *tensor.Tensor // batch buffers
	flopsPerStep := 3 * student.FLOPs(batches.Size())
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		steps := 0
		params := student.Params()
		batches.Epoch(func(idx []int) {
			bx, by = nn.GatherBatchInto(bx, by, x, y, idx)
			bsoft = nn.GatherInto(bsoft, soft, idx)
			nn.ZeroGrads(params)
			logits := student.Forward(bx, true)
			epochLoss += loss.ForwardDistill(logits, by, bsoft)
			student.Backward(loss.Backward())
			opt.Step(params)
			student.PostStep()
			steps++
			stats.FLOPs += flopsPerStep * int64(len(idx)) / bs
			stats.Examples += int64(len(idx))
		})
		stats.Steps += steps
		stats.EpochLoss = append(stats.EpochLoss, epochLoss/float64(steps))
	}
	return stats
}

// Agreement returns the fraction of examples on which two networks predict
// the same class — the surrogate-fidelity metric used by E27.
func Agreement(a, b *nn.Network, x *tensor.Tensor) float64 {
	pa := a.Predict(x)
	pb := b.Predict(x)
	same := 0
	for i := range pa {
		if pa[i] == pb[i] {
			same++
		}
	}
	return float64(same) / float64(len(pa))
}
