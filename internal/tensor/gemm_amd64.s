// AVX kernels for the tiled GEMM engine (gemm.go, gemm32.go) and the small
// tier (gemm_small.go). All three keep the bit-exactness contract: each
// output element is one YMM lane that accumulates a[i][p]*b[p][j] in
// ascending p with a separate multiply and add (VMULPD/VADDPD for float64,
// VMULPS/VADDPS for float32) — the same IEEE-754 mul-then-add rounding as
// the scalar reference kernels. FMA is never used (its single rounding
// would differ).

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

// smallMask holds four all-ones qwords and then four zero ones: the four
// qwords at byte offset (4-w)*8 are the lane mask of a strip w columns
// wide, for w in 1..4.
DATA smallMask<>+0(SB)/8, $-1
DATA smallMask<>+8(SB)/8, $-1
DATA smallMask<>+16(SB)/8, $-1
DATA smallMask<>+24(SB)/8, $-1
DATA smallMask<>+32(SB)/8, $0
DATA smallMask<>+40(SB)/8, $0
DATA smallMask<>+48(SB)/8, $0
DATA smallMask<>+56(SB)/8, $0
GLOBL smallMask<>(SB), RODATA|NOPTR, $64

// func gemmSmallAVX(a *float64, rs, ks int, b *float64, m, k, n int, out, bias, gate *float64, relu bool) bool
//
// The small tier's kernel (gemm_small.go): out = A·b (+ bias) for the m×k
// matrix A, whose element (i, p) is a[i*rs+p*ks], and the row-major k×n
// matrix b, into the row-major m×n out. rs = k, ks = 1 reads a row-major a
// (a·b); rs = 1, ks = m reads a k×m a down its columns (aᵀ·b); rs = ks = 0
// reads the one element a points at everywhere, so a pointer to 1.0 with
// m = 1 gives b's column sums (SumRowsInto). m, k and n are at least 1.
// bias, when not nil, points at a row of n elements that is added to every
// output row. With relu set, each output is then kept where it is > +0
// and stored as +0 elsewhere (ReLU's select), and gate, when not nil,
// points at a row-major m×n matrix: each output is kept where gate's
// element at the same place is > +0 and stored as +0 elsewhere (ReLU's
// backward gate).
//
// The output goes in strips of four columns and, within a strip, blocks
// of four rows: four YMM accumulators, one lane per output element, sweep
// the full k extent once and store with a single write each. B rows are
// read, and outputs stored, through the strip's lane mask, so the last
// n%4 columns need no second loop and nothing past either matrix is
// touched. A block with fewer than four rows left re-reads its last row
// into the spare accumulators and stores only the real rows. Every block's
// accumulators, masked, are added into Y14, and the kernel returns false
// when a lane of Y14 ends NaN, which it does whenever a product is. The
// bias strip, read through the same mask, is added to each accumulator
// after that checksum, one VADDPD with the product as the first operand,
// so out gets the bits of the product followed by a scalar add of bias: a
// NaN the add makes (a NaN bias, or infinities of opposite sign) is the
// scalar add's NaN and does not send the product back to the reference.
//
// The select and the gate run after the checksum and the bias add, as two
// store epilogues: VCMPPD with predicate 0x1e (greater-than, ordered,
// quiet) against +0 gives all ones exactly where the scalar v > 0 holds,
// so NaN, ±0 and negatives give zeros, and VANDPD with that mask keeps
// the value's bits or makes +0. The gate reads each stored row of gate
// through the strip's mask just before the row's store, so a short block
// reads no row past the last.
TEXT ·gemmSmallAVX(SB), NOSPLIT, $0-89
	MOVQ rs+8(FP), R8
	SHLQ $3, R8              // A row stride in bytes
	MOVQ ks+16(FP), R11
	SHLQ $3, R11             // A k stride in bytes
	MOVQ b+24(FP), BX
	MOVQ n+48(FP), R14
	SHLQ $3, R14             // b and out row stride in bytes
	VXORPD Y14, Y14, Y14     // NaN checksum
	VXORPD Y15, Y15, Y15     // +0, the select's and the gate's threshold
	XORQ CX, CX              // byte offset of the strip's first column

strip:
	MOVQ R14, DX
	SUBQ CX, DX              // bytes left in a row from the strip on
	CMPQ DX, $32
	JLE  narrow
	MOVQ $32, DX
narrow:
	NEGQ DX
	ADDQ $32, DX             // (4-w)*8 for a strip w columns wide
	LEAQ smallMask<>(SB), AX
	VMOVUPD (AX)(DX*1), Y13  // the strip's lane mask
	MOVQ bias+64(FP), AX
	TESTQ AX, AX
	JZ   rows
	VMASKMOVPD (AX)(CX*1), Y13, Y12 // the strip's bias row

rows:
	MOVQ a+0(FP), SI         // A(i, 0) of the block's first row
	MOVQ out+56(FP), DI
	ADDQ CX, DI              // out(i, j) of the block's first row
	MOVQ m+32(FP), R15       // rows left

block:
	// Byte offsets of the block's rows 1, 2 and 3 from row 0; a row past
	// the last re-reads the last.
	CMPQ R15, $4
	JLT  partial
	MOVQ R8, R9
	LEAQ (R8)(R8*1), R10
	LEAQ (R10)(R8*1), R12
	JMP  tile
partial:
	XORQ R9, R9
	XORQ R10, R10
	XORQ R12, R12
	CMPQ R15, $2
	JLT  tile
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R12
	CMPQ R15, $3
	JLT  tile
	LEAQ (R8)(R8*1), R10
	MOVQ R10, R12

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX              // A(i, p)
	LEAQ (BX)(CX*1), R13     // b(p, j)
	MOVQ k+40(FP), DX

loop:
	VMASKMOVPD (R13), Y13, Y4
	VBROADCASTSD (AX), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD (AX)(R9*1), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD (AX)(R10*1), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD (AX)(R12*1), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R11, AX
	ADDQ R14, R13
	DECQ DX
	JNZ  loop

	VADDPD Y1, Y0, Y5
	VADDPD Y3, Y2, Y6
	VADDPD Y6, Y5, Y5
	VANDPD Y13, Y5, Y5       // masked-off lanes may hold 0·Inf
	VADDPD Y5, Y14, Y14

	CMPQ bias+64(FP), $0
	JEQ  select
	VADDPD Y12, Y0, Y0       // product + bias, the product first
	VADDPD Y12, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y12, Y3, Y3

select:
	CMPB relu+80(FP), $0
	JEQ  write
	VCMPPD $0x1e, Y15, Y0, Y4 // all ones where the output is > +0
	VANDPD Y4, Y0, Y0
	VCMPPD $0x1e, Y15, Y1, Y5
	VANDPD Y5, Y1, Y1
	VCMPPD $0x1e, Y15, Y2, Y6
	VANDPD Y6, Y2, Y2
	VCMPPD $0x1e, Y15, Y3, Y7
	VANDPD Y7, Y3, Y3

write:
	MOVQ gate+72(FP), DX
	TESTQ DX, DX
	JNZ  gated
	VMASKMOVPD Y0, Y13, (DI)
	CMPQ R15, $2
	JLT  stored
	VMASKMOVPD Y1, Y13, (DI)(R14*1)
	CMPQ R15, $3
	JLT  stored
	VMASKMOVPD Y2, Y13, (DI)(R14*2)
	CMPQ R15, $4
	JLT  stored
	LEAQ (DI)(R14*2), AX
	VMASKMOVPD Y3, Y13, (AX)(R14*1)
	JMP  stored

gated:
	SUBQ out+56(FP), DX
	ADDQ DI, DX              // gate(i, j) of the block's first row
	VMASKMOVPD (DX), Y13, Y4
	VCMPPD $0x1e, Y15, Y4, Y4 // all ones where the gate is > +0
	VANDPD Y4, Y0, Y0
	VMASKMOVPD Y0, Y13, (DI)
	CMPQ R15, $2
	JLT  stored
	VMASKMOVPD (DX)(R14*1), Y13, Y5
	VCMPPD $0x1e, Y15, Y5, Y5
	VANDPD Y5, Y1, Y1
	VMASKMOVPD Y1, Y13, (DI)(R14*1)
	CMPQ R15, $3
	JLT  stored
	VMASKMOVPD (DX)(R14*2), Y13, Y6
	VCMPPD $0x1e, Y15, Y6, Y6
	VANDPD Y6, Y2, Y2
	VMASKMOVPD Y2, Y13, (DI)(R14*2)
	CMPQ R15, $4
	JLT  stored
	LEAQ (DX)(R14*2), DX
	VMASKMOVPD (DX)(R14*1), Y13, Y7
	VCMPPD $0x1e, Y15, Y7, Y7
	VANDPD Y7, Y3, Y3
	LEAQ (DI)(R14*2), AX
	VMASKMOVPD Y3, Y13, (AX)(R14*1)
stored:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R14*4), DI
	SUBQ $4, R15
	JGT  block

	ADDQ $32, CX
	CMPQ CX, R14
	JLT  strip

	VCMPPD $3, Y14, Y14, Y14 // unordered: all ones in a NaN lane
	VMOVMSKPD Y14, AX
	VZEROUPPER
	TESTQ AX, AX
	SETEQ ret+88(FP)
	RET
