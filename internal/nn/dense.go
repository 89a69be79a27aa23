package nn

import (
	"fmt"
	"math/rand"

	"dlsys/internal/tensor"
)

// Dense is a fully-connected layer computing y = xW + b over a batch of row
// vectors. W has shape [in, out], b has shape [1, out].
type Dense struct {
	name string
	W, B *Param
	// mask, when non-nil, is applied element-wise to W on every Forward and
	// to W's gradient on every Backward; the pruning package uses it to
	// keep pruned weights at zero through further training.
	mask *tensor.Tensor

	x *tensor.Tensor // cached input for backward
	// Train-mode buffers (see Layer): the forward output, the input
	// gradient, and the weight and bias gradient temporaries.
	out, dx, dw, db *tensor.Tensor
}

// NewDense creates a Dense layer with He-initialised weights, appropriate
// for ReLU networks.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	return &Dense{
		name: name,
		W:    NewParam(name+".W", tensor.HeInit(rng, in, out)),
		B:    NewParam(name+".b", tensor.New(1, out)),
	}
}

// NewDenseXavier creates a Dense layer with Xavier-initialised weights,
// appropriate for tanh/sigmoid networks.
func NewDenseXavier(rng *rand.Rand, name string, in, out int) *Dense {
	return &Dense{
		name: name,
		W:    NewParam(name+".W", tensor.XavierInit(rng, in, out)),
		B:    NewParam(name+".b", tensor.New(1, out)),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// In returns the input width.
func (d *Dense) In() int { return d.W.Value.Dim(0) }

// Out returns the output width.
func (d *Dense) Out() int { return d.W.Value.Dim(1) }

// SetMask installs (or clears, with nil) a 0/1 pruning mask with W's shape.
// The mask is applied immediately and on every subsequent forward/backward.
// A mask of the wrong shape is rejected with an error.
func (d *Dense) SetMask(m *tensor.Tensor) error {
	if m != nil && !m.SameShape(d.W.Value) {
		return fmt.Errorf("nn: mask shape %v != weight shape %v", m.Shape(), d.W.Value.Shape())
	}
	d.mask = m
	d.applyMask()
	return nil
}

// Mask returns the current pruning mask, or nil.
func (d *Dense) Mask() *tensor.Tensor { return d.mask }

// PostStep implements PostStepper: it re-zeroes masked weights that the
// optimizer may have perturbed (momentum and Adam state produce nonzero
// updates even for zero gradients).
func (d *Dense) PostStep() { d.applyMask() }

func (d *Dense) applyMask() {
	if d.mask == nil {
		return
	}
	for i := range d.W.Value.Data {
		d.W.Value.Data[i] *= d.mask.Data[i]
	}
}

// Forward implements Layer. The product and the bias add are one kernel
// call (tensor.MatMulAddRowInto), with the bits of MatMul followed by
// AddRowVectorInPlace.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.applyMask()
	if !train {
		d.x = nil
		return tensor.MatMulAddRowInto(nil, x, d.W.Value, d.B.Value)
	}
	d.x = x
	d.out = tensor.MatMulAddRowInto(d.out, x, d.W.Value, d.B.Value)
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(dout)
	d.dx = tensor.MatMulTransBInto(d.dx, dout, d.W.Value)
	return d.dx
}

// backwardParams is Backward without the input gradient: it accumulates
// W's and b's gradients and releases the cached input.
func (d *Dense) backwardParams(dout *tensor.Tensor) {
	if d.x == nil {
		panic("nn: Dense.Backward without training Forward")
	}
	d.dw = tensor.MatMulTransAInto(d.dw, d.x, dout)
	if d.mask != nil {
		for i := range d.dw.Data {
			d.dw.Data[i] *= d.mask.Data[i]
		}
	}
	d.W.Grad.AddInPlace(d.dw)
	d.db = tensor.SumRowsInto(d.db, dout)
	d.B.Grad.AddInPlace(d.db)
	d.x = nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// FLOPs implements FLOPsCounter: 2·in·out multiply-adds plus the bias add.
func (d *Dense) FLOPs(batch int) int64 {
	in, out := int64(d.In()), int64(d.Out())
	return int64(batch) * (2*in*out + out)
}

// ActivationFloats implements ActivationSizer: the cached input.
func (d *Dense) ActivationFloats(batch int) int64 {
	return int64(batch) * int64(d.In())
}

// OutputShape implements OutputShaper.
func (d *Dense) OutputShape(in []int) []int { return []int{d.Out()} }
