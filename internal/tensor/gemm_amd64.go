//go:build amd64

package tensor

// Implemented in gemm_amd64.s.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
func gemm8x4AVX(a *float64, k int, strip *float64, out *float64, n int)
func gemm8x8AVX512(a *float64, k int, strip *float64, out *float64, n int)
func gemm8x8AVX32(a *float32, k int, strip *float32, out *float32, n int)
func gemm8x16AVX512f32(a *float32, k int, strip *float32, out *float32, n int)
func gemmSmallAVX(a *float64, rs, ks int, b *float64, m, k, n int, out, bias, gate *float64, relu bool) bool

// hasAVX reports whether the CPU and OS support 256-bit AVX state, gating
// the assembly micro-kernels. Detection runs once at startup; everything
// else in the engine is pure Go, so non-AVX machines just take the scalar
// micro-kernels.
var hasAVX = detectAVX()

// hasAVX512 reports whether the CPU and OS support 512-bit AVX-512 state.
// It widens the packed tiers' strips so that their full tiles run the ZMM
// kernels (stripWidth). It implies hasAVX.
var hasAVX512 = hasAVX && detectAVX512()

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

// detectAVX512 reads CPUID leaf 7 and XCR0 for avx512Usable. XGETBV needs
// OSXSAVE, so it runs only after detectAVX has found it.
func detectAVX512() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	_, ebx7, _, _ := cpuidex(7, 0)
	xcr0, _ := xgetbv0()
	return avx512Usable(maxID, ebx7, xcr0)
}

// avx512Usable is the AVX-512 rule on raw words: the CPU has leaf 7, whose
// EBX reports AVX512F (bit 16), and XCR0 shows the OS saving the XMM and
// YMM state, the opmask registers and both parts of the ZMM state (bits 1,
// 2, 5, 6 and 7). A CPU with AVX512F under an OS that does not save ZMM
// state must not run the ZMM kernels.
func avx512Usable(maxID, ebx7, xcr0 uint32) bool {
	const avx512f = 1 << 16
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return maxID >= 7 && ebx7&avx512f != 0 && xcr0&zmmState == zmmState
}
