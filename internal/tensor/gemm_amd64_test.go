//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// On an AVX host the pure-Go micro-kernels only run when the assembly is
// switched off, so this test does exactly that: every GEMM entry point must
// give the same bits with and without the AVX kernels.
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
}
