package nn

import (
	"math/rand"

	"dlsys/internal/tensor"
)

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Schedule  LRSchedule // nil keeps the optimizer's LR untouched
	// OnEpochEnd, when non-nil, is invoked after each epoch with the epoch
	// index and the mean training loss; ensembles use it to take snapshots.
	OnEpochEnd func(epoch int, loss float64)
}

// TrainStats summarises a completed training run with the resource metrics
// Part 1 of the tutorial is organised around.
type TrainStats struct {
	EpochLoss []float64 // mean loss per epoch
	Steps     int       // optimizer steps taken
	FLOPs     int64     // total estimated FLOPs (forward+backward)
	Examples  int64     // examples processed
}

// Trainer runs mini-batch gradient descent on a network.
type Trainer struct {
	Net  *Network
	Loss Loss
	Opt  Optimizer
	RNG  *rand.Rand
}

// NewTrainer wires a network, loss, and optimizer together. The RNG drives
// batch shuffling only.
func NewTrainer(net *Network, loss Loss, opt Optimizer, rng *rand.Rand) *Trainer {
	return &Trainer{Net: net, Loss: loss, Opt: opt, RNG: rng}
}

// Batches deals the examples [0, n) into minibatches, one shuffled pass
// per epoch. Every trainer runs its epochs through it, so all of them draw
// alike: one rng.Shuffle(n, …) per epoch, over a permutation that starts as
// the identity and carries over from one epoch to the next.
type Batches struct {
	rng  *rand.Rand
	perm []int
	size int
}

// NewBatches returns the driver for n examples in batches of size; a size
// ≤ 0 or > n is clamped to n.
func NewBatches(rng *rand.Rand, n, size int) *Batches {
	if size <= 0 || size > n {
		size = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return &Batches{rng: rng, perm: perm, size: size}
}

// Size returns the clamped batch size. Every batch holds that many
// examples except an epoch's last, which may hold fewer.
func (b *Batches) Size() int { return b.size }

// Epoch shuffles the permutation once and calls step on each consecutive
// slice of it, in order. idx is valid only during its call.
func (b *Batches) Epoch(step func(idx []int)) {
	perm, n := b.perm, len(b.perm)
	b.rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for start := 0; start < n; start += b.size {
		step(perm[start:min(start+b.size, n)])
	}
}

// Fit trains on inputs x (rank ≥ 2, leading axis = examples) against targets
// y (rank-2, same leading axis) for the configured number of epochs.
func (t *Trainer) Fit(x, y *tensor.Tensor, cfg TrainConfig) TrainStats {
	batches := NewBatches(t.RNG, x.Dim(0), cfg.BatchSize)
	bs := int64(batches.Size())
	var stats TrainStats
	var bx, by *tensor.Tensor // batch buffers, regrown only for a partial batch
	// The backward pass costs roughly 2× the forward pass.
	flopsPerStep := 3 * t.Net.FLOPs(batches.Size())
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Schedule != nil {
			t.Opt.SetLR(cfg.Schedule(epoch))
		}
		var epochLoss float64
		steps := 0
		batches.Epoch(func(idx []int) {
			bx, by = GatherBatchInto(bx, by, x, y, idx)
			epochLoss += t.Step(bx, by)
			steps++
			stats.FLOPs += flopsPerStep * int64(len(idx)) / bs
			stats.Examples += int64(len(idx))
		})
		stats.Steps += steps
		epochLoss /= float64(steps)
		stats.EpochLoss = append(stats.EpochLoss, epochLoss)
		if cfg.OnEpochEnd != nil {
			cfg.OnEpochEnd(epoch, epochLoss)
		}
	}
	return stats
}

// Step runs one forward/backward/update on a single batch and returns the
// batch loss.
func (t *Trainer) Step(bx, by *tensor.Tensor) float64 {
	loss := t.ComputeGrad(bx, by)
	t.ApplyUpdate()
	return loss
}

// ApplyUpdate applies the optimizer to the gradients currently accumulated
// on the network and restores layer invariants. Supervised training loops
// (guard.Trainer) split Step into ComputeGrad + ApplyUpdate so they can
// inspect — and possibly discard — gradients before they touch parameters.
func (t *Trainer) ApplyUpdate() {
	t.Opt.Step(t.Net.Params())
	t.Net.PostStep()
}

// ComputeGrad runs one forward/backward on a batch without updating
// parameters, leaving gradients accumulated on the network. Distributed
// training uses this to obtain per-worker gradients. Returns the loss.
//
// It zeroes the parameters' gradients and accumulates the batch's into
// them. Nothing reads the gradient with respect to the batch, so the
// backward pass stops at the parameters' (Network.backwardParams).
func (t *Trainer) ComputeGrad(bx, by *tensor.Tensor) float64 {
	ZeroGrads(t.Net.Params())
	out := t.Net.Forward(bx, true)
	loss := t.Loss.Forward(out, by)
	t.Net.backwardParams(t.Loss.Backward())
	return loss
}

// GatherBatchInto gathers the examples idx of x and y into bx and by with
// GatherInto, and returns the tensors holding the batch.
func GatherBatchInto(bx, by, x, y *tensor.Tensor, idx []int) (*tensor.Tensor, *tensor.Tensor) {
	return GatherInto(bx, x, idx), GatherInto(by, y, idx)
}

// GatherInto copies the examples idx of src (leading axis = examples; rank
// 2 for tabular data, rank 4 for images) into dst and returns the tensor
// holding them. dst is reused when it already holds len(idx) examples of
// src's shape; nil or a differently shaped dst allocates. Training loops
// keep the result as their batch buffer, so a gathered batch is valid until
// the next step's gather.
//
// An example of at most shortExample elements is copied by a plain loop:
// on such rows a memmove call per example cost more than the move (64
// random rows of 2 or 3 elements took about 1.5× as long). Wider examples
// keep one copy call each, which the loop lost to at 16 elements: E28's
// 64-pixel digits and the interpret_tour example's 10-feature mixture
// gather that way.
func GatherInto(dst, src *tensor.Tensor, idx []int) *tensor.Tensor {
	if !holdsRows(dst, src, len(idx)) {
		dst = tensor.New(append([]int{len(idx)}, src.Shape()[1:]...)...)
	}
	ex := src.Size() / src.Dim(0)
	if ex > shortExample {
		for bi, i := range idx {
			copy(dst.Data[bi*ex:(bi+1)*ex], src.Data[i*ex:(i+1)*ex])
		}
		return dst
	}
	for bi, i := range idx {
		d, s := dst.Data[bi*ex:][:ex], src.Data[i*ex:][:ex]
		for j, v := range s {
			d[j] = v
		}
	}
	return dst
}

// shortExample is the widest example GatherInto copies without memmove:
// one 64-byte cache line of float64s.
const shortExample = 8

// holdsRows reports whether t has shape [rows, src.Shape()[1:]...].
func holdsRows(t, src *tensor.Tensor, rows int) bool {
	if t == nil || t.Rank() != src.Rank() || t.Dim(0) != rows {
		return false
	}
	for i := 1; i < src.Rank(); i++ {
		if t.Dim(i) != src.Dim(i) {
			return false
		}
	}
	return true
}

// OneHot encodes integer labels as one-hot rows with the given class count.
func OneHot(labels []int, classes int) *tensor.Tensor {
	out := tensor.New(len(labels), classes)
	for i, l := range labels {
		out.Data[i*classes+l] = 1
	}
	return out
}
