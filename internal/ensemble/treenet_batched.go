package ensemble

import (
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Batched branch training: a TreeNet's K branches are, by construction,
// K copies of the same Dense/ReLU skeleton applied to the same trunk
// activation. That is exactly the repeated-shape pattern the tiered GEMM
// engine's BatMul exists for, so instead of K sequential rank-2 forward
// passes per batch the trainer stacks the branch weights into one
// [K, in, out] tensor and issues a single rank-3 product per layer.
//
// The fused path is bit-identical to the sequential one: BatMul slice i
// is bit-identical to MatMul on the same operands (the PR-9 equivalence
// contract), the bias and ReLU stages are element-wise, and the backward
// pass reuses the exact rank-2 kernels (MatMulTransA/MatMulTransB/SumRows)
// and accumulation order that Dense.Backward uses. The sequential path
// stays reachable via TrainConfig.SequentialBranches; the equivalence test
// trains both and compares every parameter bit for bit.

// branchesBatchable reports whether every branch shares one unmasked
// Dense/ReLU skeleton, the precondition for stacking their weights into
// rank-3 operands. NewTreeNet always builds such branches; hand-assembled
// TreeNets (or pruned ones carrying weight masks) fall back to the
// sequential path.
func branchesBatchable(t *TreeNet) bool {
	if len(t.Branches) < 2 {
		return false
	}
	ref := t.Branches[0]
	for _, br := range t.Branches {
		if len(br) != len(ref) {
			return false
		}
		for i, l := range br {
			switch rl := ref[i].(type) {
			case *nn.Dense:
				d, ok := l.(*nn.Dense)
				if !ok || d.In() != rl.In() || d.Out() != rl.Out() || d.Mask() != nil {
					return false
				}
			case *nn.ReLU:
				if _, ok := l.(*nn.ReLU); !ok {
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

// branchSlice views batch element b of a rank-3 [K, m, n] tensor as an
// m×n matrix sharing the underlying storage.
func branchSlice(t *tensor.Tensor, b int) *tensor.Tensor {
	m, n := t.Dim(1), t.Dim(2)
	return tensor.FromSlice(t.Data[b*m*n:(b+1)*m*n], m, n)
}

// denseForwardBatched computes slice-wise xW+b for branch layer li over
// all K branches with one BatMul. The bias broadcast mirrors
// tensor.AddRowVectorInPlace element for element.
func (t *TreeNet) denseForwardBatched(li int, x *tensor.Tensor) *tensor.Tensor {
	k := x.Dim(0)
	d0 := t.Branches[0][li].(*nn.Dense)
	in, out := d0.In(), d0.Out()
	w := tensor.New(k, in, out)
	for b := 0; b < k; b++ {
		copy(w.Data[b*in*out:(b+1)*in*out], t.Branches[b][li].(*nn.Dense).W.Value.Data)
	}
	z := tensor.BatMul(x, w)
	bs := z.Dim(1)
	for b := 0; b < k; b++ {
		bias := t.Branches[b][li].(*nn.Dense).B.Value.Data
		sl := z.Data[b*bs*out : (b+1)*bs*out]
		for i := 0; i < bs; i++ {
			row := sl[i*out : (i+1)*out]
			for j := range row {
				row[j] += bias[j]
			}
		}
	}
	return z
}

// trainStepBatched runs one gradient accumulation over batch (bx, by)
// with all K branch forwards fused into rank-3 GEMMs. Grads land in the
// same Param.Grad tensors the sequential path fills; the caller zeroes
// grads before and steps the optimizer after, exactly as before.
func (t *TreeNet) trainStepBatched(bx, by *tensor.Tensor, losses []*nn.SoftmaxCrossEntropy) {
	h := t.forwardTrunk(bx, true)
	k := len(t.Branches)
	bs := h.Dim(0)

	// Replicate the shared trunk activation into every branch slice.
	cur := tensor.New(k, bs, h.Dim(1))
	for b := 0; b < k; b++ {
		copy(cur.Data[b*h.Size():(b+1)*h.Size()], h.Data)
	}

	ref := t.Branches[0]
	denseIn := make([]*tensor.Tensor, len(ref))
	reluMask := make([][]bool, len(ref))
	for li, l := range ref {
		switch l.(type) {
		case *nn.Dense:
			denseIn[li] = cur
			cur = t.denseForwardBatched(li, cur)
		case *nn.ReLU:
			mask := make([]bool, cur.Size())
			out := tensor.New(cur.Shape()...)
			for i, v := range cur.Data {
				if v > 0 {
					out.Data[i] = v
					mask[i] = true
				}
			}
			reluMask[li] = mask
			cur = out
		}
	}

	// Per-branch losses on slice views, gradients restacked for the
	// shared backward walk.
	dcur := tensor.New(cur.Shape()...)
	for b := 0; b < k; b++ {
		losses[b].Forward(branchSlice(cur, b), by)
		g := losses[b].Backward()
		copy(dcur.Data[b*g.Size():(b+1)*g.Size()], g.Data)
	}

	for li := len(ref) - 1; li >= 0; li-- {
		switch ref[li].(type) {
		case *nn.Dense:
			x := denseIn[li]
			m, n := dcur.Dim(1), x.Dim(2)
			dx := tensor.New(k, m, n)
			for b := 0; b < k; b++ {
				d := t.Branches[b][li].(*nn.Dense)
				doutv := branchSlice(dcur, b)
				d.W.Grad.AddInPlace(tensor.MatMulTransA(branchSlice(x, b), doutv))
				d.B.Grad.AddInPlace(tensor.SumRows(doutv))
				copy(dx.Data[b*m*n:(b+1)*m*n], tensor.MatMulTransB(doutv, d.W.Value).Data)
			}
			dcur = dx
		case *nn.ReLU:
			mask := reluMask[li]
			dx := tensor.New(dcur.Shape()...)
			for i, v := range dcur.Data {
				if mask[i] {
					dx.Data[i] = v
				}
			}
			dcur = dx
		}
	}

	// Trunk gradient: sum the branch slices in branch order — the same
	// dTrunk.AddInPlace(dh) chain the sequential path performs.
	dTrunk := branchSlice(dcur, 0).Clone()
	for b := 1; b < k; b++ {
		dTrunk.AddInPlace(branchSlice(dcur, b))
	}
	backwardLayers(t.Trunk, dTrunk)
}
