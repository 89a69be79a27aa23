package tensor

// ConvGeom describes the geometry of a 2-D convolution over NCHW tensors.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate returns a typed error when the geometry itself is nonsense:
// non-positive dimensions or stride, negative padding, or a kernel larger
// than the padded input (which would make the output extent non-positive).
// Before this gate existed a Stride of 0 reached OutH's integer division
// and panicked with a raw divide-by-zero — the motivating fuzz finding.
func (g ConvGeom) Validate() error {
	if g.InC < 1 || g.InH < 1 || g.InW < 1 {
		return errf("ConvGeom", "non-positive input dims in %+v", g)
	}
	if g.KH < 1 || g.KW < 1 {
		return errf("ConvGeom", "non-positive kernel dims in %+v", g)
	}
	if g.Stride < 1 {
		return errf("ConvGeom", "stride must be >= 1 in %+v", g)
	}
	if g.Pad < 0 {
		return errf("ConvGeom", "negative padding in %+v", g)
	}
	if g.KH > g.InH+2*g.Pad || g.KW > g.InW+2*g.Pad {
		return errf("ConvGeom", "kernel exceeds padded input in %+v", g)
	}
	return nil
}

// CheckInput returns a typed error when the geometry is invalid or in is
// not an NCHW batch matching it — the validated-at-construction gate
// Im2Col relies on.
func (g ConvGeom) CheckInput(in *Tensor) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if in.Rank() != 4 {
		return errf("Im2Col", "requires rank-4 input, got %v", in.shape)
	}
	if in.shape[1] != g.InC || in.shape[2] != g.InH || in.shape[3] != g.InW {
		return errf("Im2Col", "input %v does not match geometry %+v", in.shape, g)
	}
	return nil
}

// Im2Col lowers a batch of NCHW images to a matrix so convolution becomes a
// matrix multiplication. The input must have shape [N, C, H, W]; the result
// has shape [N*OutH*OutW, C*KH*KW], one row per output spatial position.
func Im2Col(in *Tensor, g ConvGeom) *Tensor { return mustT(Im2ColChecked(in, g)) }

// Im2ColChecked is Im2Col returning an error instead of panicking on an
// invalid geometry or a mismatched input.
func Im2ColChecked(in *Tensor, g ConvGeom) (*Tensor, error) {
	if err := g.CheckInput(in); err != nil {
		return nil, err
	}
	n := in.shape[0]
	oh, ow := g.OutH(), g.OutW()
	cols := New(n*oh*ow, g.InC*g.KH*g.KW)
	im2colInto(cols, in, g)
	return cols, nil
}

// Im2ColInto is Im2Col writing into a caller-provided destination, reusing
// its storage when the shape already matches — the inference-path scratch
// buffer that keeps steady-state conv forwards allocation-free. Passing
// nil (or a tensor of the wrong shape) allocates fresh storage; either way
// the tensor holding the result is returned.
func Im2ColInto(dst, in *Tensor, g ConvGeom) *Tensor {
	must(g.CheckInput(in))
	n := in.shape[0]
	oh, ow := g.OutH(), g.OutW()
	dst = dstFor(dst, n*oh*ow, g.InC*g.KH*g.KW, false)
	im2colInto(dst, in, g)
	return dst
}

func im2colInto(cols, in *Tensor, g ConvGeom) {
	n := in.shape[0]
	oh, ow := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	for b := 0; b < n; b++ {
		base := b * g.InC * g.InH * g.InW
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				r := ((b*oh)+oy)*ow + ox
				dst := cols.Data[r*rowLen : (r+1)*rowLen]
				di := 0
				for c := 0; c < g.InC; c++ {
					cbase := base + c*g.InH*g.InW
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.Stride + ky - g.Pad
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.Stride + kx - g.Pad
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								dst[di] = in.Data[cbase+iy*g.InW+ix]
							} else {
								dst[di] = 0
							}
							di++
						}
					}
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) a column matrix
// of shape [N*OutH*OutW, C*KH*KW] back into an NCHW tensor of shape
// [N, C, H, W]. Overlapping patches sum, which is exactly the gradient of
// Im2Col.
func Col2Im(cols *Tensor, n int, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if cols.Rank() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != rowLen {
		panic(errf("Col2Im", "input %v does not match geometry %+v (n=%d)", cols.shape, g, n))
	}
	out := New(n, g.InC, g.InH, g.InW)
	for b := 0; b < n; b++ {
		base := b * g.InC * g.InH * g.InW
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				r := ((b*oh)+oy)*ow + ox
				src := cols.Data[r*rowLen : (r+1)*rowLen]
				si := 0
				for c := 0; c < g.InC; c++ {
					cbase := base + c*g.InH*g.InW
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.Stride + ky - g.Pad
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.Stride + kx - g.Pad
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								out.Data[cbase+iy*g.InW+ix] += src[si]
							}
							si++
						}
					}
				}
			}
		}
	}
	return out
}
