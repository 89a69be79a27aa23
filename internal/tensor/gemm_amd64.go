//go:build amd64

package tensor

// Implemented in gemm_amd64.s.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
func gemm8x4AVX(a *float64, k int, strip *float64, out *float64, n int)
func gemm8x8AVX32(a *float32, k int, strip *float32, out *float32, n int)
func gemmSmallAVX(a *float64, rs, ks int, b *float64, m, k, n int, out, bias *float64) bool

// hasAVX reports whether the CPU and OS support 256-bit AVX state, gating
// the assembly micro-kernels. Detection runs once at startup; everything
// else in the engine is pure Go, so non-AVX machines just take the scalar
// micro-kernels.
var hasAVX = detectAVX()

func detectAVX() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	lo, _ := xgetbv0()
	return lo&6 == 6 // OS saves both XMM and YMM state
}
