// Package prune implements the neural-network pruning techniques from
// Part 1 of the tutorial (§2.1): unstructured magnitude pruning, saliency
// (loss-gradient) pruning, and random pruning as a control baseline.
// Pruned weights are held at zero through further training via masks on
// nn.Dense layers.
package prune

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Criterion scores each weight; the lowest-scoring weights are pruned.
type Criterion int

// Pruning criteria.
const (
	// Magnitude prunes the smallest |w| — "low-magnitude parameters are
	// unnecessary".
	Magnitude Criterion = iota
	// Saliency prunes by |w·∂L/∂w|, a first-order estimate of each
	// weight's effect on the loss. Gradients must be populated (call
	// Trainer.ComputeGrad on a representative batch first).
	Saliency
	// Random prunes uniformly at random — the control baseline that
	// magnitude/saliency must beat.
	Random
)

// Sparsity reports the fraction of masked (zero) weights across all Dense
// layers of a network. Layers without masks count as fully dense.
func Sparsity(net *nn.Network) float64 {
	var zero, total int
	for _, l := range net.Layers {
		d, ok := l.(*nn.Dense)
		if !ok {
			continue
		}
		total += d.W.Value.Size()
		if m := d.Mask(); m != nil {
			for _, v := range m.Data {
				if v == 0 {
					zero++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zero) / float64(total)
}

// GlobalPrune masks the lowest-scoring fraction of each Dense layer's
// weights (biases are never pruned). Scoring is layer-wise: weight
// magnitudes are not comparable across layers with different fan-in scales,
// and cross-layer ranking tends to wipe out whole layers — the standard
// remedy is a per-layer budget. Masks are rebuilt from scratch, so the
// target sparsity is absolute, not incremental. Sparsities outside [0, 1)
// are a caller error, reported rather than panicking: targets usually come
// from sweep configs, so the library boundary validates them.
func GlobalPrune(rng *rand.Rand, net *nn.Network, sparsity float64, crit Criterion) error {
	if !(sparsity >= 0 && sparsity < 1) { // false for NaN too
		return fmt.Errorf("prune: sparsity %g out of [0, 1)", sparsity)
	}
	for _, l := range net.Layers {
		d, ok := l.(*nn.Dense)
		if !ok {
			continue
		}
		n := d.W.Value.Size()
		scores := make([]float64, n)
		for i, w := range d.W.Value.Data {
			switch crit {
			case Magnitude:
				scores[i] = math.Abs(w)
			case Saliency:
				scores[i] = math.Abs(w * d.W.Grad.Data[i])
			case Random:
				scores[i] = rng.Float64()
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
		mask := tensor.Full(1, d.W.Value.Shape()...)
		for _, i := range order[:int(sparsity*float64(n))] {
			mask.Data[i] = 0
		}
		if err := d.SetMask(mask); err != nil {
			return err
		}
	}
	return nil
}

// NonzeroParamBytes returns the storage for a pruned network in a sparse
// format: 4 bytes (float32) per surviving weight plus 4 bytes of index per
// surviving weight, plus dense biases.
func NonzeroParamBytes(net *nn.Network) int64 {
	var bytes int64
	for _, l := range net.Layers {
		switch d := l.(type) {
		case *nn.Dense:
			nz := 0
			if m := d.Mask(); m != nil {
				for _, v := range m.Data {
					if v != 0 {
						nz++
					}
				}
			} else {
				nz = d.W.Value.Size()
			}
			bytes += int64(nz)*8 + int64(d.B.Value.Size())*4
		default:
			for _, p := range l.Params() {
				bytes += int64(p.Value.Size()) * 4
			}
		}
	}
	return bytes
}
