package tensor

import (
	"math"
	"testing"
)

// Fuzz targets for the Checked entry points. The Checked APIs must either
// return a typed error or produce output matching the reference kernel,
// never panic. Generated values are clamped finite; FuzzMatMulShapes then
// places NaN, ±Inf and ±0 by its poison input, but only below the packed
// threshold: the small tier and the reference loops give the same bits for
// every input there, while above it the tiled kernel's multiply-through of
// a skipped zero may differ from the reference on non-finite input
// (gemm.go). The fused bias add, ReLU and gate and the column sum are held
// to their unfused forms at every shape, with the poison in the bias row
// too.

// clampFinite maps arbitrary fuzzed float64 bits to a finite value.
func clampFinite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	if v > 1e150 {
		return 1e150
	}
	if v < -1e150 {
		return -1e150
	}
	return v
}

func FuzzMatMulShapes(f *testing.F) {
	// Seeds include the shapes that previously stressed the kernels: the
	// 1-row product, tile remainders around the 4- and 8-row boundaries and
	// the f32 kernel's 8-column boundary, degenerate k=0, and rank-breaking
	// dimension zeros.
	// The last three poison the small tier's hot shapes and a single row.
	f.Add(1, 1, 1, int64(1), uint64(0))
	f.Add(1, 7, 5, int64(2), uint64(0))
	f.Add(8, 33, 4, int64(3), uint64(0))
	f.Add(9, 17, 9, int64(4), uint64(0))
	f.Add(3, 0, 4, int64(5), uint64(0))
	f.Add(0, 3, 4, int64(6), uint64(0))
	f.Add(33, 65, 29, int64(7), uint64(0))
	f.Add(17, 65, 23, int64(8), uint64(0))
	f.Add(16, 6, 24, int64(9), uint64(1))
	f.Add(64, 8, 2, int64(10), uint64(7))
	f.Add(1, 3, 8, int64(11), uint64(3))
	f.Fuzz(func(t *testing.T, m, k, n int, seed int64, poison uint64) {
		// Bound sizes so the fuzzer explores shapes, not out-of-memory.
		if m < 0 || k < 0 || n < 0 || m > 70 || k > 70 || n > 70 {
			t.Skip()
		}
		a, b := New(m, k), New(k, n)
		r := seed
		next := func() float64 {
			r = r*6364136223846793005 + 1442695040888963407
			return clampFinite(float64(int32(r>>33)) / (1 << 16))
		}
		for i := range a.Data {
			a.Data[i] = next()
		}
		for i := range b.Data {
			b.Data[i] = next()
		}
		row := New(1, n)
		for i := range row.Data {
			row.Data[i] = next()
		}
		poisoned := poison != 0 && !usePacked(m, k, n)
		if poisoned {
			specials := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
			r := poison
			for _, x := range []*Tensor{a, b, row} {
				for i := range x.Data {
					r = r*6364136223846793005 + 1442695040888963407
					if r>>61 == 0 {
						x.Data[i] = specials[(r>>32)%uint64(len(specials))]
					}
				}
			}
		}
		got, err := MatMulChecked(a, b)
		if err != nil {
			t.Fatalf("conformable shapes rejected: %v", err)
		}
		want := MatMulRef(a, b)
		if !Equal(got, want, 0) {
			t.Fatalf("MatMul != reference at %dx%dx%d", m, k, n)
		}
		if poisoned {
			at, bt := Transpose(a), Transpose(b)
			for _, r := range []struct {
				name      string
				got, want *Tensor
			}{
				{"MatMul", got, want},
				{"MatMulTransA", MatMulTransA(at, b), refTransA(at, b)},
				{"MatMulTransB", MatMulTransB(a, bt), refTransB(a, bt)},
			} {
				if i := firstBitDiff(r.got, r.want); i >= 0 {
					t.Fatalf("%s differs from its reference loop in the bits of element %d at %dx%dx%d, poison %#x",
						r.name, i, m, k, n, poison)
				}
			}
		}
		// The fused bias add against MatMul then AddRowVectorInPlace, and
		// the column sum against its scalar loop, at every shape: both run
		// the same tier as their unfused forms, so even above the packed
		// threshold they must give the same bits.
		unfused := MatMul(a, b)
		AddRowVectorInPlace(unfused, row)
		if i := firstBitDiff(MatMulAddRowInto(nil, a, b, row), unfused); i >= 0 {
			t.Fatalf("MatMulAddRowInto != MatMul + AddRowVectorInPlace in the bits of element %d at %dx%dx%d, poison %#x",
				i, m, k, n, poison)
		}
		// The fused ReLU and the gated a·bᵀ, gated by that sum, against
		// the select and the gate by their definitions.
		if i := firstBitDiff(MatMulAddRowReLUInto(nil, a, b, row), refReLU(unfused)); i >= 0 {
			t.Fatalf("MatMulAddRowReLUInto != refReLU of the bias add in the bits of element %d at %dx%dx%d, poison %#x",
				i, m, k, n, poison)
		}
		bt := Transpose(b)
		if i := firstBitDiff(MatMulTransBGateInto(nil, a, bt, unfused), refGate(MatMulTransB(a, bt), unfused)); i >= 0 {
			t.Fatalf("MatMulTransBGateInto != refGate of MatMulTransB in the bits of element %d at %dx%dx%d, poison %#x",
				i, m, k, n, poison)
		}
		for _, x := range []*Tensor{a, b} {
			if i := firstBitDiff(SumRowsInto(nil, x), refSumRows(x)); i >= 0 {
				t.Fatalf("SumRowsInto != its scalar loop in the bits of element %d of a %v sum, poison %#x", i, x.Shape(), poison)
			}
		}
		// The f32 tier: packed kernels against its row-by-row reference.
		a32, b32 := ToFloat32(a), ToFloat32(b)
		got32, err := MatMul32Checked(a32, b32)
		if err != nil {
			t.Fatalf("conformable f32 shapes rejected: %v", err)
		}
		if i := firstBitDiff32(got32, matMul32RowByRow(a32, b32)); i >= 0 {
			t.Fatalf("MatMul32 != f32 reference at %dx%dx%d elem %d", m, k, n, i)
		}
		// Mismatched inner dimension must error, not panic.
		if k != n {
			if _, err := MatMulChecked(a, New(n, k)); err == nil {
				t.Fatalf("inner mismatch accepted at %dx%dx%d", m, k, n)
			}
		}
		// Batched path over two identical slices.
		if m > 0 && k > 0 && n > 0 {
			ab := New(2, m, k)
			bb := New(2, k, n)
			copy(ab.Data[:m*k], a.Data)
			copy(ab.Data[m*k:], a.Data)
			copy(bb.Data[:k*n], b.Data)
			copy(bb.Data[k*n:], b.Data)
			bout, err := BatMulChecked(ab, bb)
			if err != nil {
				t.Fatalf("BatMul rejected positive shapes: %v", err)
			}
			for s := 0; s < 2; s++ {
				slice := FromSlice(bout.Data[s*m*n:(s+1)*m*n], m, n)
				if i := firstBitDiff(slice, want); i >= 0 {
					t.Fatalf("BatMul slice %d != reference at %dx%dx%d elem %d", s, m, k, n, i)
				}
			}
		} else if _, err := BatMulChecked(New(2, m, k), New(2, k, n)); err == nil {
			t.Fatalf("BatMul accepted degenerate %dx%dx%d", m, k, n)
		}
	})
}

func FuzzIm2ColGeom(f *testing.F) {
	// Seeds include the geometry that used to panic with an integer
	// divide-by-zero (Stride=0) before ConvGeom.Validate existed, plus
	// negative padding and kernels larger than the padded input.
	f.Add(1, 4, 4, 3, 3, 1, 1)
	f.Add(2, 5, 5, 3, 3, 2, 0)
	f.Add(1, 4, 4, 3, 3, 0, 1)  // Stride=0: the historical panic
	f.Add(1, 4, 4, 3, 3, 1, -1) // negative padding
	f.Add(1, 2, 2, 5, 5, 1, 0)  // kernel exceeds input
	f.Add(3, 1, 1, 1, 1, 1, 0)
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, stride, pad int) {
		if c < -4 || c > 4 || h < -8 || h > 8 || w < -8 || w > 8 ||
			kh < -8 || kh > 8 || kw < -8 || kw > 8 ||
			stride < -4 || stride > 4 || pad < -4 || pad > 4 {
			t.Skip()
		}
		g := ConvGeom{InC: c, InH: h, InW: w, KH: kh, KW: kw, Stride: stride, Pad: pad}
		verr := g.Validate()
		var in *Tensor
		if c > 0 && h > 0 && w > 0 {
			in = New(2, c, h, w)
			for i := range in.Data {
				in.Data[i] = float64(i%13) - 6
			}
		} else {
			in = New(2, 1, 1, 1)
		}
		cols, err := Im2ColChecked(in, g)
		if verr != nil {
			// An invalid geometry must be refused with a typed error.
			if err == nil {
				t.Fatalf("invalid geometry %+v accepted", g)
			}
			if _, ok := err.(*Error); !ok {
				t.Fatalf("error for %+v is %T, not a typed *tensor.Error", g, err)
			}
			return
		}
		if err != nil {
			// Valid geometry, but the input may not match it.
			if _, ok := err.(*Error); !ok {
				t.Fatalf("error for %+v is %T, not a typed *tensor.Error", g, err)
			}
			return
		}
		// A successful lowering must round-trip through Col2Im without
		// panicking and keep the documented shape.
		oh, ow := g.OutH(), g.OutW()
		if cols.Dim(0) != 2*oh*ow || cols.Dim(1) != c*kh*kw {
			t.Fatalf("cols shape %v for %+v", cols.Shape(), g)
		}
		Col2Im(cols, 2, g)
		// Im2ColInto with a matching scratch reuses it and must agree.
		scratch := New(cols.Dim(0), cols.Dim(1))
		got := Im2ColInto(scratch, in, g)
		if got != scratch {
			t.Fatalf("Im2ColInto did not reuse matching scratch for %+v", g)
		}
		if !Equal(got, cols, 0) {
			t.Fatalf("Im2ColInto != Im2Col for %+v", g)
		}
	})
}
