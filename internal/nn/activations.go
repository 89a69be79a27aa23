package nn

import (
	"math"

	"dlsys/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	name    string
	mask    []bool // which inputs were positive
	n       int
	out, dx *tensor.Tensor // train-mode buffers (see Layer)
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := buffer(&r.out, x, train)
	if train {
		if cap(r.mask) < x.Size() {
			r.mask = make([]bool, x.Size())
		}
		r.mask = r.mask[:x.Size()]
		r.n = x.Size()
	}
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			if train {
				r.mask[i] = true
			}
		} else {
			out.Data[i] = 0
			if train {
				r.mask[i] = false
			}
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := buffer(&r.dx, dout, true)
	for i, v := range dout.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// ActivationFloats implements ActivationSizer. The boolean mask is charged
// as one float per element to keep the accounting simple and conservative.
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
// overwriting every element, and returns out.
func softmaxInto(out, logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic("nn: Softmax requires rank-2 logits")
	}
	m := logits.Dim(0)
	for i := 0; i < m; i++ {
		row := logits.Row(i)
		orow := out.Row(i)
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - max)
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
