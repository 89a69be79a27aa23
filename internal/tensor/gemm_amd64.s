// AVX micro-kernels for the tiled GEMM engine (gemm.go, gemm32.go). Both
// keep the bit-exactness contract: each output element is one YMM lane that
// accumulates a[i][p]*b[p][j] in ascending p with a separate multiply and
// add (VMULPD/VADDPD for float64, VMULPS/VADDPS for float32) — the same
// IEEE-754 mul-then-add rounding as the scalar reference kernels. FMA is
// never used (its single rounding would differ).

#include "textflag.h"

// func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm8x4AVX(a *float64, k int, strip *float64, out *float64, n int)
//
// Computes a full 8x4 output tile: out[r*n+j] = sum_p a[r*k+p]*strip[p*4+j]
// for r in 0..7, j in 0..3. a points at 8 contiguous rows of length k,
// strip is a packB column strip (p-major, width 4), out points at the
// tile's top-left element inside a zeroed m x n output (row stride n).
// Eight YMM accumulators (one per output row, four columns per lane) sweep
// the full k extent once and store with a single write each.
TEXT ·gemm8x4AVX(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ strip+16(FP), BX
	MOVQ out+24(FP), DI
	MOVQ n+32(FP), DX

	SHLQ $3, DX              // out row stride in bytes
	MOVQ CX, R15
	SHLQ $3, R15             // a row stride in bytes; also the loop bound
	LEAQ (SI)(R15*1), R9     // a row 1
	LEAQ (R9)(R15*1), R10    // a row 2
	LEAQ (R10)(R15*1), R11   // a row 3
	LEAQ (R11)(R15*1), R12   // a row 4
	LEAQ (R12)(R15*1), R13   // a row 5
	LEAQ (R13)(R15*1), R14   // a row 6
	LEAQ (R14)(R15*1), AX    // a row 7

	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15

	XORQ R8, R8              // byte offset into each a row; strip offset is 4x
	CMPQ R8, R15
	JGE  store

loop:
	VMOVUPD (BX)(R8*4), Y0   // strip[p*4 .. p*4+3]
	VBROADCASTSD (SI)(R8*1), Y1
	VMULPD Y0, Y1, Y1
	VADDPD Y1, Y8, Y8
	VBROADCASTSD (R9)(R8*1), Y2
	VMULPD Y0, Y2, Y2
	VADDPD Y2, Y9, Y9
	VBROADCASTSD (R10)(R8*1), Y3
	VMULPD Y0, Y3, Y3
	VADDPD Y3, Y10, Y10
	VBROADCASTSD (R11)(R8*1), Y4
	VMULPD Y0, Y4, Y4
	VADDPD Y4, Y11, Y11
	VBROADCASTSD (R12)(R8*1), Y5
	VMULPD Y0, Y5, Y5
	VADDPD Y5, Y12, Y12
	VBROADCASTSD (R13)(R8*1), Y6
	VMULPD Y0, Y6, Y6
	VADDPD Y6, Y13, Y13
	VBROADCASTSD (R14)(R8*1), Y7
	VMULPD Y0, Y7, Y7
	VADDPD Y7, Y14, Y14
	VBROADCASTSD (AX)(R8*1), Y1
	VMULPD Y0, Y1, Y1
	VADDPD Y1, Y15, Y15
	ADDQ $8, R8
	CMPQ R8, R15
	JLT  loop

store:
	VMOVUPD Y8, (DI)
	ADDQ DX, DI
	VMOVUPD Y9, (DI)
	ADDQ DX, DI
	VMOVUPD Y10, (DI)
	ADDQ DX, DI
	VMOVUPD Y11, (DI)
	ADDQ DX, DI
	VMOVUPD Y12, (DI)
	ADDQ DX, DI
	VMOVUPD Y13, (DI)
	ADDQ DX, DI
	VMOVUPD Y14, (DI)
	ADDQ DX, DI
	VMOVUPD Y15, (DI)
	VZEROUPPER
	RET

// func gemm8x8AVX32(a *float32, k int, strip *float32, out *float32, n int)
//
// The float32 counterpart of gemm8x4AVX: a full 8x8 output tile,
// out[r*n+j] = sum_p a[r*k+p]*strip[p*8+j] for r, j in 0..7. strip is a
// packB32 column strip (p-major, width 8), so one YMM register holds a
// whole strip row and each of the eight accumulators is one output row.
TEXT ·gemm8x8AVX32(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ strip+16(FP), BX
	MOVQ out+24(FP), DI
	MOVQ n+32(FP), DX

	SHLQ $2, DX              // out row stride in bytes
	MOVQ CX, R15
	SHLQ $2, R15             // a row stride in bytes; also the loop bound
	LEAQ (SI)(R15*1), R9     // a row 1
	LEAQ (R9)(R15*1), R10    // a row 2
	LEAQ (R10)(R15*1), R11   // a row 3
	LEAQ (R11)(R15*1), R12   // a row 4
	LEAQ (R12)(R15*1), R13   // a row 5
	LEAQ (R13)(R15*1), R14   // a row 6
	LEAQ (R14)(R15*1), AX    // a row 7

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

	XORQ R8, R8              // byte offset into each a row; strip offset is 8x
	CMPQ R8, R15
	JGE  store32

loop32:
	VMOVUPS (BX)(R8*8), Y0   // strip[p*8 .. p*8+7]
	VBROADCASTSS (SI)(R8*1), Y1
	VMULPS Y0, Y1, Y1
	VADDPS Y1, Y8, Y8
	VBROADCASTSS (R9)(R8*1), Y2
	VMULPS Y0, Y2, Y2
	VADDPS Y2, Y9, Y9
	VBROADCASTSS (R10)(R8*1), Y3
	VMULPS Y0, Y3, Y3
	VADDPS Y3, Y10, Y10
	VBROADCASTSS (R11)(R8*1), Y4
	VMULPS Y0, Y4, Y4
	VADDPS Y4, Y11, Y11
	VBROADCASTSS (R12)(R8*1), Y5
	VMULPS Y0, Y5, Y5
	VADDPS Y5, Y12, Y12
	VBROADCASTSS (R13)(R8*1), Y6
	VMULPS Y0, Y6, Y6
	VADDPS Y6, Y13, Y13
	VBROADCASTSS (R14)(R8*1), Y7
	VMULPS Y0, Y7, Y7
	VADDPS Y7, Y14, Y14
	VBROADCASTSS (AX)(R8*1), Y1
	VMULPS Y0, Y1, Y1
	VADDPS Y1, Y15, Y15
	ADDQ $4, R8
	CMPQ R8, R15
	JLT  loop32

store32:
	VMOVUPS Y8, (DI)
	ADDQ DX, DI
	VMOVUPS Y9, (DI)
	ADDQ DX, DI
	VMOVUPS Y10, (DI)
	ADDQ DX, DI
	VMOVUPS Y11, (DI)
	ADDQ DX, DI
	VMOVUPS Y12, (DI)
	ADDQ DX, DI
	VMOVUPS Y13, (DI)
	ADDQ DX, DI
	VMOVUPS Y14, (DI)
	ADDQ DX, DI
	VMOVUPS Y15, (DI)
	VZEROUPPER
	RET
