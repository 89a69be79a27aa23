package nn

import (
	"math/rand"

	"dlsys/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs implemented by im2col
// lowering followed by a matrix multiplication. The kernel parameter has
// shape [outC, inC*KH*KW] (already flattened for the GEMM) and the bias has
// shape [1, outC].
type Conv2D struct {
	name string
	Geom tensor.ConvGeom
	OutC int
	W, B *Param

	cols  *tensor.Tensor // cached im2col matrix
	batch int

	// scratch is the inference-path im2col buffer, reused across eval
	// forwards of the same batch shape so steady-state serving allocates
	// only the layer output. The training path keeps its own fresh matrix
	// (it must survive until Backward).
	scratch *tensor.Tensor
}

// NewConv2D creates a convolution layer with He-initialised kernels.
func NewConv2D(rng *rand.Rand, name string, g tensor.ConvGeom, outC int) *Conv2D {
	fanIn := g.InC * g.KH * g.KW
	return &Conv2D{
		name: name,
		Geom: g,
		OutC: outC,
		W:    NewParam(name+".W", tensor.HeInitShape(rng, fanIn, outC, fanIn)),
		B:    NewParam(name+".b", tensor.New(1, outC)),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Forward implements Layer. Input must be [N, InC, InH, InW]; output is
// [N, OutC, OutH, OutW].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	var cols *tensor.Tensor // [N*OH*OW, InC*KH*KW]
	if train {
		cols = tensor.Im2Col(x, c.Geom)
		c.cols = cols
		c.batch = n
	} else {
		c.scratch = tensor.Im2ColInto(c.scratch, x, c.Geom)
		cols = c.scratch
		c.cols = nil
	}
	// [N*OH*OW, OutC] = cols · Wᵀ
	prod := tensor.MatMulTransB(cols, c.W.Value)
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	out := tensor.New(n, c.OutC, oh, ow)
	// Scatter [N*OH*OW, OutC] into NCHW order, adding bias.
	hw := oh * ow
	for b := 0; b < n; b++ {
		for p := 0; p < hw; p++ {
			row := prod.Row(b*hw + p)
			for oc := 0; oc < c.OutC; oc++ {
				out.Data[((b*c.OutC)+oc)*hw+p] = row[oc] + c.B.Value.Data[oc]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D.Backward without training Forward")
	}
	n := c.batch
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	hw := oh * ow
	// Gather dout (NCHW) into [N*OH*OW, OutC].
	dprod := tensor.New(n*hw, c.OutC)
	for b := 0; b < n; b++ {
		for p := 0; p < hw; p++ {
			row := dprod.Row(b*hw + p)
			for oc := 0; oc < c.OutC; oc++ {
				row[oc] = dout.Data[((b*c.OutC)+oc)*hw+p]
			}
		}
	}
	// dW = dprodᵀ · cols ; db = column sums of dprod.
	c.W.Grad.AddInPlace(tensor.MatMulTransA(dprod, c.cols))
	c.B.Grad.AddInPlace(tensor.SumRows(dprod))
	// dcols = dprod · W ; dx = Col2Im(dcols).
	dcols := tensor.MatMul(dprod, c.W.Value)
	dx := tensor.Col2Im(dcols, n, c.Geom)
	c.cols = nil
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// FLOPs implements FLOPsCounter.
func (c *Conv2D) FLOPs(batch int) int64 {
	positions := int64(c.Geom.OutH()) * int64(c.Geom.OutW())
	perPos := 2 * int64(c.Geom.InC*c.Geom.KH*c.Geom.KW) * int64(c.OutC)
	return int64(batch) * positions * (perPos + int64(c.OutC))
}

// OutputShape implements OutputShaper.
func (c *Conv2D) OutputShape(in []int) []int {
	return []int{c.OutC, c.Geom.OutH(), c.Geom.OutW()}
}

// Flatten reshapes [N, ...] to [N, prod(...)]. It is shape bookkeeping
// only; data is shared.
type Flatten struct {
	name    string
	inShape []int
}

// NewFlatten creates a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = x.Shape()
	}
	return x.Reshape(x.Dim(0), -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return dout.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutputShape implements OutputShaper.
func (f *Flatten) OutputShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}
