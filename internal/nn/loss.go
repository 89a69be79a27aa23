package nn

import (
	"fmt"
	"math"

	"dlsys/internal/tensor"
)

// Loss computes a scalar training loss from a batch of network outputs and
// targets, and the gradient of that loss with respect to the outputs. A
// loss follows the Layer rule for train-mode results: the gradient Backward
// returns lives in a buffer the loss owns and is valid until its next
// Forward or Backward. A loss may write that gradient during Forward and
// return the same buffer from every Backward until the next Forward, as
// SoftmaxCrossEntropy does. So a caller that edits it in place, as
// fairness.TrainWeighted scales its rows, edits the loss's buffer, and a
// second Backward returns the edited values.
type Loss interface {
	// Forward returns the mean loss over the batch.
	Forward(pred, target *tensor.Tensor) float64
	// Backward returns dL/dpred for the most recent Forward.
	Backward() *tensor.Tensor
}

// SoftmaxCrossEntropy fuses a softmax over logits with the cross-entropy
// loss against one-hot (or soft) target rows. The fused backward pass is the
// numerically-stable (p - t)/batch.
type SoftmaxCrossEntropy struct {
	probs *tensor.Tensor
	grad  *tensor.Tensor // Forward writes it, Backward returns it
}

// NewSoftmaxCrossEntropy creates the fused softmax + cross-entropy loss.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward implements Loss. target rows must sum to 1 (one-hot or soft), and
// target must have logits' shape. After the softmax, one pass over the
// probabilities writes the gradient (p − t)·(1/batch), which Backward then
// returns, and sums the loss terms −t·log(max(p, 1e-300)) where t > 0 in
// row-major order; the sum is divided by the batch size at the end.
func (l *SoftmaxCrossEntropy) Forward(logits, target *tensor.Tensor) float64 {
	mustSameShape("SoftmaxCrossEntropy", logits, target)
	probs := softmaxInto(buffer(&l.probs, logits, true), logits).Data
	grad := buffer(&l.grad, logits, true).Data[:len(probs)]
	t := target.Data[:len(probs)]
	m := logits.Dim(0)
	scale := 1 / float64(m)
	var loss float64
	for i, p := range probs {
		if ti := t[i]; ti > 0 {
			loss -= ti * math.Log(math.Max(p, 1e-300))
		}
		grad[i] = (p - t[i]) * scale
	}
	return loss / float64(m)
}

// Backward implements Loss: it returns the gradient the last Forward wrote.
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor { return l.grad }

// Probs returns the softmax probabilities from the last Forward. They live
// in the loss's own buffer, valid until its next Forward.
func (l *SoftmaxCrossEntropy) Probs() *tensor.Tensor { return l.probs }

// MSE is the mean squared error loss, 1/(2·batch)·Σ(pred−target)², whose
// gradient is (pred−target)/batch.
type MSE struct {
	diff, grad *tensor.Tensor // Forward's and Backward's buffers
}

// NewMSE creates a mean-squared-error loss.
func NewMSE() *MSE { return &MSE{} }

// Forward implements Loss.
func (l *MSE) Forward(pred, target *tensor.Tensor) float64 {
	mustSameShape("MSE", pred, target)
	diff := buffer(&l.diff, pred, true)
	for i, p := range pred.Data {
		diff.Data[i] = p - target.Data[i]
	}
	m := pred.Dim(0)
	var s float64
	for _, v := range diff.Data {
		s += v * v
	}
	return s / (2 * float64(m))
}

// Backward implements Loss.
func (l *MSE) Backward() *tensor.Tensor {
	grad := buffer(&l.grad, l.diff, true)
	scale := 1 / float64(l.diff.Dim(0))
	for i, v := range l.diff.Data {
		grad.Data[i] = scale * v
	}
	return grad
}

// mustSameShape panics when a loss's prediction and target shapes differ.
func mustSameShape(loss string, pred, target *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: %s prediction shape %v != target shape %v", loss, pred.Shape(), target.Shape()))
	}
}

// DistillLoss mixes hard-label cross-entropy with a soft-target term at
// temperature T, following Hinton et al.: L = α·CE(hard) + (1−α)·T²·CE(soft).
// The T² factor keeps gradient magnitudes comparable across temperatures.
type DistillLoss struct {
	Alpha, T   float64
	hard, soft *SoftmaxCrossEntropy
	logits     *tensor.Tensor
}

// NewDistillLoss creates a distillation loss with hard-label weight alpha
// and temperature T.
func NewDistillLoss(alpha, T float64) *DistillLoss {
	return &DistillLoss{Alpha: alpha, T: T, hard: NewSoftmaxCrossEntropy(), soft: NewSoftmaxCrossEntropy()}
}

// ForwardDistill computes the mixed loss. hardTarget is one-hot;
// teacherProbs are the teacher's temperature-softened probabilities.
func (l *DistillLoss) ForwardDistill(logits, hardTarget, teacherProbs *tensor.Tensor) float64 {
	l.logits = logits
	lh := l.hard.Forward(logits, hardTarget)
	ls := l.soft.Forward(tensor.Scale(1/l.T, logits), teacherProbs)
	return l.Alpha*lh + (1-l.Alpha)*l.T*l.T*ls
}

// Backward returns the gradient of the mixed loss w.r.t. the logits.
func (l *DistillLoss) Backward() *tensor.Tensor {
	gh := l.hard.Backward()
	gs := l.soft.Backward()
	// d(softened logits)/d(logits) contributes 1/T; with the T² scale the
	// soft term's gradient w.r.t. raw logits carries a net factor of T.
	out := tensor.Scale(l.Alpha, gh)
	out.AxpyInPlace((1-l.Alpha)*l.T, gs)
	return out
}
