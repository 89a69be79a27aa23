//go:build amd64

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// forEachKernelPath runs f with the assembly kernels switched off and, on
// an AVX host, again with them on, naming each run after its setting.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	defer func(saved bool) { hasAVX = saved }(hasAVX)
	avx := hasAVX
	hasAVX = false
	t.Run("pure Go", f)
	if !avx {
		t.Log("no AVX on this CPU: only the pure-Go kernels ran")
		return
	}
	hasAVX = true
	t.Run("AVX", f)
}

// smallEdgeShapes puts every remainder of the AVX small kernel's four-row
// blocks and four-column strips (m%4 and n%4 of 0, 1, 2 and 3) next to
// single rows and columns, at a k of one and of several steps.
func smallEdgeShapes() []struct{ m, k, n int } {
	var shapes []struct{ m, k, n int }
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7} {
			for _, k := range []int{1, 9} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return shapes
}

// On an AVX host the pure-Go micro-kernels only run when the assembly is
// switched off, so this test does exactly that: every GEMM entry point,
// and the column sum that runs the small kernel, must give the same bits
// with and without the AVX kernels.
func TestPureGoKernelsMatchAVX(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU: every run already takes the pure-Go kernels")
	}
	defer func(saved bool) { hasAVX = saved }(hasAVX)
	rng := rand.New(rand.NewSource(48))
	for _, s := range f32Shapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		a32, b32 := ToFloat32(a), ToFloat32(b)

		hasAVX = true
		asm32, asmTiled, asmAuto := MatMul32(a32, b32), MatMulTiled(a, b), MatMul(a, b)
		hasAVX = false
		if i := firstBitDiff32(MatMul32(a32, b32), asm32); i >= 0 {
			t.Errorf("MatMul32 pure Go != AVX at %dx%dx%d elem %d", s.m, s.k, s.n, i)
		}
		if !Equal(MatMulTiled(a, b), asmTiled, 0) {
			t.Errorf("MatMulTiled pure Go != AVX at %dx%dx%d", s.m, s.k, s.n)
		}
		if !Equal(MatMul(a, b), asmAuto, 0) {
			t.Errorf("MatMul pure Go != AVX at %dx%dx%d", s.m, s.k, s.n)
		}
	}
	// The small tier's products, through the entry points that reach it,
	// into dsts full of NaN so an unwritten element shows. On each path the
	// fused bias add must equal MatMulInto then AddRowVectorInPlace, and
	// the column sum its scalar loop, which with the check above holds
	// them to the same bits with and without the AVX kernel.
	for _, s := range append(append([]struct{ m, k, n int }(nil), equivShapes...), smallEdgeShapes()...) {
		a, b := randMat(rng, s.m, s.k), randMat(rng, s.k, s.n)
		at, bt := Transpose(a), Transpose(b)
		row, c := randMat(rng, 1, s.n), randMat(rng, s.m, s.n)
		ab, bb := New(2, s.m, s.k), New(2, s.k, s.n)
		for _, x := range []*Tensor{ab, bb} {
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
		}
		products := []struct {
			name string
			run  func() *Tensor
		}{
			{"MatMulInto", func() *Tensor { return MatMulInto(Full(math.NaN(), s.m, s.n), a, b) }},
			{"MatMulTransAInto", func() *Tensor { return MatMulTransAInto(Full(math.NaN(), s.m, s.n), at, b) }},
			{"MatMulTransBInto", func() *Tensor { return MatMulTransBInto(Full(math.NaN(), s.m, s.n), a, bt) }},
			{"BatMul", func() *Tensor { return BatMul(ab, bb) }},
		}
		for _, p := range products {
			hasAVX = true
			asm := p.run()
			hasAVX = false
			if i := firstBitDiff(p.run(), asm); i >= 0 {
				t.Errorf("%s pure Go != AVX at %dx%dx%d elem %d", p.name, s.m, s.k, s.n, i)
			}
		}
		for _, avx := range []bool{false, true} {
			hasAVX = avx
			unfused := MatMulInto(nil, a, b)
			AddRowVectorInPlace(unfused, row)
			if i := firstBitDiff(MatMulAddRowInto(Full(math.NaN(), s.m, s.n), a, b, row), unfused); i >= 0 {
				t.Errorf("MatMulAddRowInto != MatMulInto + AddRowVectorInPlace at %dx%dx%d, AVX %v, elem %d", s.m, s.k, s.n, avx, i)
			}
			if i := firstBitDiff(SumRowsInto(Full(math.NaN(), 1, s.n), c), refSumRows(c)); i >= 0 {
				t.Errorf("SumRowsInto != its scalar loop at %dx%d, AVX %v, elem %d", s.m, s.n, avx, i)
			}
		}
	}
	// The column sum takes the kernel at any size, so hold it to the
	// scalar loop past 2¹⁶ elements too: tall and narrow, and wide.
	hasAVX = true
	for _, s := range []struct{ m, n int }{{16387, 5}, {301, 259}} {
		c := randMat(rng, s.m, s.n)
		if i := firstBitDiff(SumRowsInto(Full(math.NaN(), 1, s.n), c), refSumRows(c)); i >= 0 {
			t.Errorf("SumRowsInto != its scalar loop at %dx%d, elem %d", s.m, s.n, i)
		}
	}
}
