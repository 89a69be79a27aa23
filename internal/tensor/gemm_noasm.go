//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go micro-kernels; hasAVX and hasAVX512
// being false constants lets the compiler drop the assembly call sites
// entirely.
const (
	hasAVX    = false
	hasAVX512 = false
)

func gemm8x4AVX(a *float64, k int, strip *float64, out *float64, n int) {
	panic(errf("MatMul", "assembly kernel unavailable on this architecture"))
}

func gemm8x8AVX512(a *float64, k int, strip *float64, out *float64, n int) {
	panic(errf("MatMul", "assembly kernel unavailable on this architecture"))
}

func gemm8x8AVX32(a *float32, k int, strip *float32, out *float32, n int) {
	panic(errf("MatMul32", "assembly kernel unavailable on this architecture"))
}

func gemm8x16AVX512f32(a *float32, k int, strip *float32, out *float32, n int) {
	panic(errf("MatMul32", "assembly kernel unavailable on this architecture"))
}

func gemmSmallAVX(a *float64, rs, ks int, b *float64, m, k, n int, out, bias, gate *float64, relu bool) bool {
	panic(errf("MatMul", "assembly kernel unavailable on this architecture"))
}
