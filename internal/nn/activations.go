package nn

import (
	"math"

	"dlsys/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	name    string
	mask    []uint8 // 0xFF where the input was positive, else 0
	n       int
	out, dx *tensor.Tensor // train-mode buffers (see Layer)
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// positiveMask returns all ones when v > 0 and zero otherwise, NaN
// included, as a conditional move rather than a branch: the sign of a
// pre-activation is close to a coin flip, so a branch on it mispredicts.
func positiveMask(v float64) uint64 {
	var m uint64
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// Forward implements Layer. Each output is v where v > 0 and +0 elsewhere
// (NaN, ±0 and negatives), selected by masking v's bits.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := buffer(&r.out, x, train)
	xd := x.Data
	var mask []uint8
	if train {
		if cap(r.mask) < len(xd) {
			r.mask = make([]uint8, len(xd))
		}
		mask = r.mask[:len(xd)]
		r.mask, r.n = mask, len(xd)
	}
	od := out.Data[:len(xd)]
	for i, v := range xd {
		m := positiveMask(v)
		od[i] = math.Float64frombits(math.Float64bits(v) & m)
		if train {
			mask[i] = uint8(m)
		}
	}
	return out
}

// Backward implements Layer: dout where the input was positive, +0
// elsewhere, selected through the forward pass's mask.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := buffer(&r.dx, dout, true)
	mask, dd := r.mask[:len(dout.Data)], dx.Data[:len(dout.Data)]
	for i, v := range dout.Data {
		m := uint64(int64(int8(mask[i]))) // sign extension widens 0xFF to all ones
		dd[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// ActivationFloats implements ActivationSizer. The byte mask is charged as
// one float per element to keep the accounting simple and conservative.
func (r *ReLU) ActivationFloats(batch int) int64 {
	if batch <= 0 || r.n == 0 {
		return 0
	}
	return int64(r.n)
}

// OutputShape implements OutputShaper.
func (r *ReLU) OutputShape(in []int) []int { return in }

// Sigmoid applies 1/(1+e^-x) element-wise.
type Sigmoid struct {
	name    string
	y       *tensor.Tensor // cached output for backward
	out, dx *tensor.Tensor // train-mode buffers (see Layer)
}

// NewSigmoid creates a Sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return s.name }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := buffer(&s.out, x, train)
	for i, v := range x.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if train {
		s.y = out
	} else {
		s.y = nil
	}
	return out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := buffer(&s.dx, dout, true)
	for i, v := range dout.Data {
		y := s.y.Data[i]
		dx.Data[i] = v * y * (1 - y)
	}
	s.y = nil
	return dx
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// OutputShape implements OutputShaper.
func (s *Sigmoid) OutputShape(in []int) []int { return in }

// Tanh applies tanh element-wise.
type Tanh struct {
	name    string
	y       *tensor.Tensor // cached output for backward
	out, dx *tensor.Tensor // train-mode buffers (see Layer)
}

// NewTanh creates a Tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (t *Tanh) Name() string { return t.name }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := buffer(&t.out, x, train)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	if train {
		t.y = out
	} else {
		t.y = nil
	}
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := buffer(&t.dx, dout, true)
	for i, v := range dout.Data {
		y := t.y.Data[i]
		dx.Data[i] = v * (1 - y*y)
	}
	t.y = nil
	return dx
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// OutputShape implements OutputShaper.
func (t *Tanh) OutputShape(in []int) []int { return in }

// Softmax converts a batch of logit rows into probability rows. It is used
// for inference output; training should use the fused SoftmaxCrossEntropy
// loss, which is numerically stabler and cheaper.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	return softmaxInto(tensor.New(logits.Shape()...), logits)
}

// softmaxInto writes Softmax(logits) into out, which has logits' shape,
// overwriting every element, and returns out. Each row's sum is taken in
// ascending order from 0, and each probability is a divide by it.
//
// exp runs only where d = v − max is non-zero. The max's own term, and any
// tie with it, has d = ±0, and exp(±0) is exactly 1 on every amd64 and 386
// path of math.Exp (the FMA and plain assemblies and the pure-Go exp), so
// the skip keeps every bit. Where v or the max is NaN, or both are +Inf or
// both −Inf, d is NaN, so exp still runs and keeps its NaN.
func softmaxInto(out, logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic("nn: Softmax requires rank-2 logits")
	}
	w := logits.Dim(1)
	for off := 0; off < len(logits.Data); off += w {
		row, orow := logits.Data[off:off+w], out.Data[off:off+w]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := 1.0
			if d := v - max; d != 0 {
				e = math.Exp(d)
			}
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

// SoftmaxTemperature is Softmax with logits divided by temperature T first.
// T > 1 softens the distribution; used by knowledge distillation.
func SoftmaxTemperature(logits *tensor.Tensor, T float64) *tensor.Tensor {
	return Softmax(tensor.Scale(1/T, logits))
}
