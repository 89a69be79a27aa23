// Package nn implements a from-scratch neural-network engine: layers with
// explicit forward/backward passes, losses, optimizers, a training loop, and
// resource accounting (parameter counts, FLOPs, activation memory). It is
// the substrate for every deep-learning technique in dlsys: quantization,
// pruning, distillation, ensembles, distributed training, checkpointing,
// interpretability, and fairness interventions all operate on nn networks.
//
// The engine is deliberately eager and layer-local rather than a full
// autograd graph: each layer caches what its backward pass needs during
// Forward and releases it after Backward. That makes activation memory
// explicit — which is exactly what the checkpointing and offloading
// experiments need to measure.
package nn

import "dlsys/internal/tensor"

// Param is a trainable parameter: a value tensor and its gradient
// accumulator of the same shape.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam creates a parameter wrapping v with a zeroed gradient.
func NewParam(name string, v *tensor.Tensor) *Param {
	return &Param{Name: name, Value: v, Grad: tensor.New(v.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ZeroGrads clears the gradient of every parameter in params. Network.Params
// builds its list anew on each call, so training loops take it once per
// epoch and zero that list before each step.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// Layer is one stage of a network. Forward computes the layer's output for
// a batch and, when train is true, caches whatever Backward will need.
// Backward consumes the gradient of the loss with respect to the layer's
// output and returns the gradient with respect to its input, accumulating
// parameter gradients along the way.
//
// Train-mode results are borrowed, not owned: a layer may write the output
// of a train-mode Forward, and the gradient Backward returns, into buffers
// it owns and reuses across steps. Such a tensor is valid until that
// layer's next train-mode Forward or Backward; a caller that keeps one
// longer must Clone it. A layer never overwrites what an inference
// (train=false) Forward returned, so callers may keep those.
type Layer interface {
	// Name identifies the layer for serialization and debugging.
	Name() string
	// Forward runs the layer on x. When train is false the layer may use a
	// cheaper inference path (e.g. BatchNorm running statistics) and must
	// not retain references to x.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates dout (dL/doutput) to dL/dinput. It must only be
	// called after a Forward with train=true.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// FLOPsCounter is implemented by layers that can estimate their forward-pass
// floating-point operations for a given batch size. The training cost is
// conventionally estimated as 3× the forward cost (forward + ~2× backward).
type FLOPsCounter interface {
	FLOPs(batch int) int64
}

// ActivationSizer is implemented by layers that report the number of
// float64 values they must keep alive between Forward and Backward for a
// given batch size. The checkpointing experiments use this to account
// training memory.
type ActivationSizer interface {
	ActivationFloats(batch int) int64
}

// OutputShaper reports the per-example output shape of a layer given its
// per-example input shape. Used to size downstream layers mechanically.
type OutputShaper interface {
	OutputShape(in []int) []int
}

// buffer returns the tensor a layer writes an x-shaped result into. In
// train mode that is the layer-owned *owned, regrown only when x's shape
// changes; otherwise it is a fresh tensor the caller may keep. A reused
// buffer holds the previous step's values, so callers overwrite every
// element.
func buffer(owned **tensor.Tensor, x *tensor.Tensor, train bool) *tensor.Tensor {
	if train && *owned != nil && (*owned).SameShape(x) {
		return *owned
	}
	t := tensor.New(x.Shape()...)
	if train {
		*owned = t
	}
	return t
}
