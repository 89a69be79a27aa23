package quant

import (
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// F32Dense is a Dense layer lowered to float32 storage: weights and biases
// are rounded once at compile time, and inference runs entirely in float32
// through the tensor engine's f32 kernel tier. Half the in-memory bytes of
// the float64 model at a fraction of int8's accuracy risk — the middle
// rung of the serving precision ladder (f64 → f32 → int8).
type F32Dense struct {
	W *tensor.Tensor32 // [in, out]
	B *tensor.Tensor32 // [1, out]
}

// F32MLP is a float32 inference network: alternating F32Dense and ReLU,
// mirroring an nn MLP built by nn.NewMLP.
type F32MLP struct {
	Layers []*F32Dense
}

// CompileF32MLP lowers a float64 MLP to float32 inference. Only Dense and
// ReLU layers are supported; anything else panics (constructor-style
// misuse, same contract as CompileIntMLP).
func CompileF32MLP(net *nn.Network) *F32MLP {
	m := &F32MLP{}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			m.Layers = append(m.Layers, &F32Dense{
				W: tensor.ToFloat32(v.W.Value),
				B: tensor.ToFloat32(v.B.Value),
			})
		case *nn.ReLU:
			// handled implicitly between F32Dense layers
		default:
			panic("quant: CompileF32MLP supports Dense+ReLU networks only")
		}
	}
	return m
}

// Forward runs float32 inference on a [batch, in] float64 input, returning
// float32 logits. The input is rounded to float32 once at the boundary;
// everything after stays in float32.
func (m *F32MLP) Forward(x *tensor.Tensor) *tensor.Tensor32 {
	cur := tensor.ToFloat32(x)
	for li, l := range m.Layers {
		out := tensor.MatMul32(cur, l.W)
		tensor.AddRowVector32InPlace(out, l.B)
		// ReLU between layers, not after the final logits.
		if li < len(m.Layers)-1 {
			tensor.ReLU32InPlace(out)
		}
		cur = out
	}
	return cur
}

// Predict returns argmax classes from the float32 inference path.
func (m *F32MLP) Predict(x *tensor.Tensor) []int {
	out := m.Forward(x)
	preds := make([]int, out.Dim(0))
	for i := range preds {
		preds[i] = out.ArgMaxRow(i)
	}
	return preds
}

// Accuracy measures argmax accuracy of the float32 path.
func (m *F32MLP) Accuracy(x *tensor.Tensor, labels []int) float64 {
	preds := m.Predict(x)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Bytes returns the float32 model's storage: 4 bytes per weight and bias.
func (m *F32MLP) Bytes() int64 {
	var b int64
	for _, l := range m.Layers {
		b += int64(l.W.Size())*4 + int64(l.B.Size())*4
	}
	return b
}
