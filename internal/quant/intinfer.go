package quant

import (
	"math"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// IntDense is a Dense layer lowered to integer-only arithmetic: weights are
// symmetric int8, activations are quantized to int8 per batch, and the
// matrix product accumulates in int32 — the inference path the tutorial
// cites for integer networks (Jacob et al., WAGE).
type IntDense struct {
	W      []int8 // [in*out], row-major like the float weights
	In     int
	Out    int
	WScale float64 // weight = WScale * int8
	B      []float64
}

// IntMLP is an integer-only inference network: alternating IntDense and
// ReLU, mirroring an nn MLP built by nn.NewMLP.
type IntMLP struct {
	Layers []*IntDense
}

// CompileIntMLP lowers a float MLP to the integer inference path. Only
// Dense and ReLU layers are supported; anything else panics. The panic is
// deliberate (constructor-style misuse): the layer set is fixed at build
// time by the programmer, never by runtime data, so an unsupported layer is
// a programming error rather than an input to validate.
func CompileIntMLP(net *nn.Network) *IntMLP {
	m := &IntMLP{}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			m.Layers = append(m.Layers, lowerDense(v))
		case *nn.ReLU:
			// handled implicitly between IntDense layers
		default:
			panic("quant: CompileIntMLP supports Dense+ReLU networks only")
		}
	}
	return m
}

func lowerDense(d *nn.Dense) *IntDense {
	w := d.W.Value
	scale := w.AbsMax() / 127
	if scale == 0 {
		scale = 1
	}
	out := &IntDense{
		W:      make([]int8, w.Size()),
		In:     d.In(),
		Out:    d.Out(),
		WScale: scale,
		B:      append([]float64(nil), d.B.Value.Data...),
	}
	for i, v := range w.Data {
		q := math.Round(v / scale)
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		out.W[i] = int8(q)
	}
	return out
}

// Forward runs integer-only inference on a [batch, in] input, returning
// float logits. Each layer quantizes its input symmetrically to int8,
// multiplies in int32, then rescales.
func (m *IntMLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	cur := x
	for li, l := range m.Layers {
		batch := cur.Dim(0)
		// Quantize activations symmetrically per batch.
		aScale := cur.AbsMax() / 127
		if aScale == 0 {
			aScale = 1
		}
		qa := make([]int8, cur.Size())
		for i, v := range cur.Data {
			q := math.Round(v / aScale)
			if q > 127 {
				q = 127
			}
			if q < -127 {
				q = -127
			}
			qa[i] = int8(q)
		}
		out := tensor.New(batch, l.Out)
		rescale := aScale * l.WScale
		for b := 0; b < batch; b++ {
			arow := qa[b*l.In : (b+1)*l.In]
			orow := out.Row(b)
			for j := 0; j < l.Out; j++ {
				var acc int32
				for k := 0; k < l.In; k++ {
					acc += int32(arow[k]) * int32(l.W[k*l.Out+j])
				}
				orow[j] = float64(acc)*rescale + l.B[j]
			}
		}
		// ReLU between layers, not after the final logits.
		if li < len(m.Layers)-1 {
			for i, v := range out.Data {
				if v < 0 {
					out.Data[i] = 0
				}
			}
		}
		cur = out
	}
	return cur
}

// Predict returns argmax classes from the integer inference path.
func (m *IntMLP) Predict(x *tensor.Tensor) []int {
	out := m.Forward(x)
	preds := make([]int, out.Dim(0))
	for i := range preds {
		preds[i] = out.ArgMaxRow(i)
	}
	return preds
}

// Accuracy measures argmax accuracy of the integer path.
func (m *IntMLP) Accuracy(x *tensor.Tensor, labels []int) float64 {
	preds := m.Predict(x)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Bytes returns the integer model's storage: int8 weights + float64 biases.
func (m *IntMLP) Bytes() int64 {
	var b int64
	for _, l := range m.Layers {
		b += int64(len(l.W)) + int64(len(l.B))*8 + 8 // weights + biases + scale
	}
	return b
}
