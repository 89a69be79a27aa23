package tensor

import (
	"math/rand"
	"testing"
)

func TestConvGeomDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-pad conv dims %dx%d, want 8x8", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2, Pad: 0}
	if g2.OutH() != 3 || g2.OutW() != 3 {
		t.Fatalf("strided dims %dx%d, want 3x3", g2.OutH(), g2.OutW())
	}
}

// A 1x1 kernel with stride 1 and no padding is the identity lowering: each
// im2col row is a single input element in channel-major order.
func TestIm2ColIdentityKernel(t *testing.T) {
	in := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 1, 2, 2, 2)
	g := ConvGeom{InC: 2, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1, Pad: 0}
	cols := Im2Col(in, g)
	if cols.Dim(0) != 4 || cols.Dim(1) != 2 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// Row for spatial position (0,0): channel 0 value 1, channel 1 value 5.
	if cols.At(0, 0) != 1 || cols.At(0, 1) != 5 {
		t.Fatalf("row 0 = %v", cols.Row(0))
	}
	if cols.At(3, 0) != 4 || cols.At(3, 1) != 8 {
		t.Fatalf("row 3 = %v", cols.Row(3))
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	in := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := Im2Col(in, g)
	// Output position (0,0) covers input rows -1..1 and cols -1..1; the
	// top-left 2x2 of the 3x3 patch is padding.
	row := cols.Row(0)
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, w := range want {
		if row[i] != w {
			t.Fatalf("padded row = %v, want %v", row, want)
		}
	}
}

// Col2Im(Im2Col(x)) with non-overlapping patches reproduces x exactly.
func TestCol2ImRoundTripNonOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := RandNormal(rng, 0, 1, 2, 3, 4, 4)
	g := ConvGeom{InC: 3, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2, Pad: 0}
	cols := Im2Col(in, g)
	back := Col2Im(cols, 2, g)
	if !Equal(in, back, 0) {
		t.Fatal("non-overlapping round trip failed")
	}
}

// With overlapping patches, Col2Im accumulates: each interior element is
// counted once per patch covering it. For a 3x3 kernel, stride 1, pad 1 over
// a constant image, the count pattern is known.
func TestCol2ImAccumulates(t *testing.T) {
	in := Full(1, 1, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := Im2Col(in, g)
	back := Col2Im(cols, 1, g)
	// Center element is covered by all 9 patches; corner by 4.
	if back.At(0, 0, 1, 1) != 9 {
		t.Fatalf("center count = %g, want 9", back.At(0, 0, 1, 1))
	}
	if back.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner count = %g, want 4", back.At(0, 0, 0, 0))
	}
}

// Property: Col2Im is the linear adjoint of Im2Col, i.e.
// <Im2Col(x), y> == <x, Col2Im(y)> for random x, y.
func TestIm2ColAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(2)
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 3 + rng.Intn(4), InW: 3 + rng.Intn(4),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			continue
		}
		x := RandNormal(rng, 0, 1, n, g.InC, g.InH, g.InW)
		y := RandNormal(rng, 0, 1, n*g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
		ax := Im2Col(x, g)
		aty := Col2Im(y, n, g)
		var lhs, rhs float64
		for i := range ax.Data {
			lhs += ax.Data[i] * y.Data[i]
		}
		for i := range x.Data {
			rhs += x.Data[i] * aty.Data[i]
		}
		if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("adjoint mismatch %g vs %g (geom %+v)", lhs, rhs, g)
		}
	}
}

// Finite-difference gradient check for the convolution lowering path. The
// loss L(x) = ½ Σᵢ wᵢ·Im2Col(x)ᵢ² is nonlinear in x, so central differences
// exercise the real chain rule: the analytic gradient is
// Col2Im(w ∘ Im2Col(x)), and every input element's finite-difference
// quotient must match it to second order. This is the same backward path a
// conv layer takes (dL/dx = Col2Im of the column-space gradient), checked
// against ground truth rather than against another hand-derived formula.
func TestConvGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(2)
		g := ConvGeom{
			InC: 1 + rng.Intn(2), InH: 3 + rng.Intn(3), InW: 3 + rng.Intn(3),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		x := RandNormal(rng, 0, 1, n, g.InC, g.InH, g.InW)
		w := RandNormal(rng, 0, 1, n*g.OutH()*g.OutW(), g.InC*g.KH*g.KW)

		loss := func(in *Tensor) float64 {
			cols := Im2Col(in, g)
			var l float64
			for i, c := range cols.Data {
				l += 0.5 * w.Data[i] * c * c
			}
			return l
		}

		// Analytic: dL/dcols = w ∘ cols, pulled back through the adjoint.
		cols := Im2Col(x, g)
		for i := range cols.Data {
			cols.Data[i] *= w.Data[i]
		}
		grad := Col2Im(cols, n, g)

		const eps = 1e-5
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			plus := loss(x)
			x.Data[i] = orig - eps
			minus := loss(x)
			x.Data[i] = orig
			fd := (plus - minus) / (2 * eps)
			if diff := fd - grad.Data[i]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("trial %d: grad[%d] analytic %g vs finite-diff %g (geom %+v)",
					trial, i, grad.Data[i], fd, g)
			}
		}
	}
}
