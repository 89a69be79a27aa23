// Package distill implements knowledge distillation (§2.1): transferring
// the function learned by a large teacher network into a smaller student by
// training the student against the teacher's temperature-softened output
// distribution (Hinton et al.), plus ensemble distillation and a
// FitNets-style hint loss on an intermediate representation.
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
	return distillAgainstSoft(rng, student, x, y, soft, cfg)
}

// DistillEnsemble distills the averaged soft predictions of several teachers
// into one student — the "accelerate ensemble inference" use the tutorial
// cites. Teachers vote with equal weight.
func DistillEnsemble(rng *rand.Rand, teachers []*nn.Network, student *nn.Network, x, y *tensor.Tensor, cfg Config) nn.TrainStats {
	if len(teachers) == 0 {
		panic("distill: no teachers")
	}
	avg := nn.SoftmaxTemperature(teachers[0].Forward(x, false), cfg.T)
	for _, t := range teachers[1:] {
		avg.AddInPlace(nn.SoftmaxTemperature(t.Forward(x, false), cfg.T))
	}
	avg.ScaleInPlace(1 / float64(len(teachers)))
	return distillAgainstSoft(rng, student, x, y, avg, cfg)
}

// distillAgainstSoft trains student against precomputed soft targets.
func distillAgainstSoft(rng *rand.Rand, student *nn.Network, x, y, soft *tensor.Tensor, cfg Config) nn.TrainStats {
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

// HintConfig controls FitNets-style hint training: the student's hidden
// representation at StudentLayer is regressed (through a learned linear
// projection) onto the teacher's representation at TeacherLayer before the
// usual distillation stage.
type HintConfig struct {
	TeacherLayer int // index into teacher.Layers whose OUTPUT is the hint
	StudentLayer int // index into student.Layers whose OUTPUT is guided
	Epochs       int
	BatchSize    int
	LR           float64
}

// HintTrain pre-trains the student's lower layers to match the teacher's
// hint representation, returning the final regression loss. The projection
// maps the student width to the teacher width and is discarded afterwards.
func HintTrain(rng *rand.Rand, teacher, student *nn.Network, x *tensor.Tensor, cfg HintConfig) float64 {
	hint := forwardUpTo(teacher, x, cfg.TeacherLayer)
	guided := forwardUpTo(student, x, cfg.StudentLayer) // for width discovery
	proj := nn.NewDense(rng, "hint-proj", guided.Dim(1), hint.Dim(1))
	opt := nn.NewAdam(cfg.LR)
	mse := nn.NewMSE()
	batches := nn.NewBatches(rng, x.Dim(0), cfg.BatchSize)
	var bx, bhint *tensor.Tensor // batch buffers
	var last float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		params := append(student.Params(), proj.W, proj.B)
		batches.Epoch(func(idx []int) {
			bx, bhint = nn.GatherBatchInto(bx, bhint, x, hint, idx)
			nn.ZeroGrads(params)
			// Forward through the guided prefix of the student.
			h := bx
			for li := 0; li <= cfg.StudentLayer; li++ {
				h = student.Layers[li].Forward(h, true)
			}
			p := proj.Forward(h, true)
			last = mse.Forward(p, bhint)
			dh := proj.Backward(mse.Backward())
			for li := cfg.StudentLayer; li >= 0; li-- {
				dh = student.Layers[li].Backward(dh)
			}
			opt.Step(params)
			student.PostStep()
		})
	}
	return last
}

// forwardUpTo runs x through layers [0, layer] in inference mode.
func forwardUpTo(net *nn.Network, x *tensor.Tensor, layer int) *tensor.Tensor {
	h := x
	for li := 0; li <= layer; li++ {
		h = net.Layers[li].Forward(h, false)
	}
	return h
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
