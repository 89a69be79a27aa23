//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go micro-kernels; hasAVX being a false
// constant lets the compiler drop the assembly call sites entirely.
const hasAVX = false

func gemm8x4AVX(a *float64, k int, strip *float64, out *float64, n int) {
	panic(errf("MatMul", "assembly kernel unavailable on this architecture"))
}

func gemm8x8AVX32(a *float32, k int, strip *float32, out *float32, n int) {
	panic(errf("MatMul32", "assembly kernel unavailable on this architecture"))
}

func gemmSmallAVX(a *float64, rs, ks int, b *float64, m, k, n int, out, bias *float64) bool {
	panic(errf("MatMul", "assembly kernel unavailable on this architecture"))
}
