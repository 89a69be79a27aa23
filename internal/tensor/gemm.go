package tensor

import "sync"

// This file is the cache-blocked GEMM engine behind MatMul, MatMulTransA,
// MatMulTransB, and BatMul. The kernel hierarchy, from slowest and most
// authoritative to fastest:
//
//	reference — matMulRows, the straightforward i-k-j triple loop, and
//	            matMulTransBRows, one dot product per element, for a·bᵀ.
//	            Every other float64 tier is defined against them.
//	small     — gemm_small.go: one kernel each for a·b, aᵀ·b and a·bᵀ
//	            below the packed threshold. a·b and aᵀ·b take it with at
//	            least two rows and k·n ≤ smallMaxKN (B stays in L1); a·bᵀ
//	            takes it at every sub-threshold shape. On amd64 with AVX
//	            all three run gemmSmallAVX (gemm_amd64.s), 4×4 tiles with
//	            one YMM lane per output; a·bᵀ transposes B into pooled
//	            scratch for it when k·n ≤ smallMaxKN and there are at
//	            least four rows. Elsewhere register-tiled Go loops run.
//	            MatMulAddRowInto adds a bias row in the kernel's epilogue,
//	            MatMulAddRowReLUInto then applies ReLU's select there, and
//	            MatMulTransBGateInto ReLU's backward gate; SumRowsInto
//	            runs it as a row of ones times its tensor.
//	tiled     — gemmPacked: B repacked into contiguous gemmNR-wide column
//	            strips, output computed by a branch-free 4x4 register
//	            micro-kernel sweeping the full k extent per output tile.
//	pooled    — the tiled kernel with output rows partitioned across the
//	            persistent worker pool (parallel.go).
//	batched   — BatMul: the tiled/pooled kernel applied per batch slice of
//	            contiguous stride-indexed rank-3 operands, and below the
//	            threshold the small tier or the reference loop per slice.
//	f32       — gemm32.go: the same tiling for float32 storage (serving-side
//	            inference) with 8-wide strips, bounded-ULP against the
//	            float64 reference and bit-identical across its own paths.
//
// The tier is picked from the operand shapes alone, with one exception: a
// small-tier product whose output holds a NaN is rerun on the reference
// loop (see gemm_small.go).
//
// Determinism contract: every float64 tier accumulates each output element
// with a single accumulator over ascending k, one rounded multiply and one
// rounded add per step (every product is written float64(x*y), so no
// GOARCH fuses them), so for finite inputs all tiers produce bit-identical
// results — parallelism only changes which worker computes a row, never
// the arithmetic order. (The reference kernel skips zero left-operand
// products, the faster tiers multiply through; for finite operands adding
// the resulting ±0 never changes an accumulator, so the tiers agree
// bit-for-bit.) Below the packed threshold the contract covers every
// input, NaN, ±Inf and ±0 included, because the small tier hands any NaN
// output back to the reference loop. Above it, non-finite inputs — where
// 0·Inf is NaN — can make the tiled tiers differ from the reference; each
// tier stays deterministic even then.
const (
	gemmMR    = 4 // scalar micro-kernel rows per sweep
	gemmNR    = 4 // float64 micro-kernel columns; also the packed strip width
	gemmMRAsm = 8 // AVX micro-kernel rows per sweep (gemm_amd64.s)
	gemmNR32  = 8 // float32 strip width: one YMM register of columns
	gemmMC    = 64
	// gemmNC is the column-block width per cache pass: one block of packed
	// strips (gemmNC·k floats) is reused across a gemmMC-row block before
	// moving on, keeping the strips hot in L1/L2.
	gemmNC = 128

	// gemmMinRows is the row count below which repacking B cannot be
	// amortised and the small tier or the reference kernel runs instead.
	gemmMinRows = 8
	// gemmPackFLOPs is the m·k·n product above which the packed tiled
	// kernel beats the reference kernel despite the packing pass.
	gemmPackFLOPs = 1 << 16
)

// scratchPool recycles packing and transpose buffers across calls so
// steady-state GEMMs allocate nothing beyond their output tensor.
var scratchPool sync.Pool

// getScratch returns a pooled float64 buffer of length n. The pool holds
// the slice header's pointer, which goes back with putScratch as it came,
// so a recycled buffer costs no allocation on either side.
func getScratch(n int) *[]float64 {
	if v := scratchPool.Get(); v != nil {
		if s := v.(*[]float64); cap(*s) >= n {
			*s = (*s)[:n]
			return s
		}
	}
	s := make([]float64, n)
	return &s
}

// putScratch recycles a buffer obtained from getScratch.
func putScratch(s *[]float64) {
	scratchPool.Put(s)
}

// packB repacks the k×n matrix b into gemmNR-wide column strips: strip js
// (js a multiple of gemmNR, width w = min(gemmNR, n-js)) occupies
// bp[js*k : js*k+k*w], stored p-major so the micro-kernel streams it
// sequentially. Every strip row sits on consecutive cache lines regardless
// of n, which removes the large-stride (and power-of-two aliasing) misses
// of walking b's rows directly.
func packB(b *Tensor, bp []float64) {
	k, n := b.shape[0], b.shape[1]
	for js := 0; js < n; js += gemmNR {
		w := n - js
		if w > gemmNR {
			w = gemmNR
		}
		dst := bp[js*k : js*k+k*w]
		if w == gemmNR {
			for p := 0; p < k; p++ {
				src := b.Data[p*n+js : p*n+js+gemmNR]
				d := dst[p*gemmNR : p*gemmNR+gemmNR]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
			}
		} else {
			for p := 0; p < k; p++ {
				copy(dst[p*w:p*w+w], b.Data[p*n+js:p*n+js+w])
			}
		}
	}
}

// packBTrans packs bᵀ for the fused MatMulTransB path: b has shape n×k and
// strip element [p][jr] is b[js+jr][p]. Source rows are contiguous, so the
// pack streams b once.
func packBTrans(b *Tensor, bp []float64) {
	n, k := b.shape[0], b.shape[1]
	for js := 0; js < n; js += gemmNR {
		w := n - js
		if w > gemmNR {
			w = gemmNR
		}
		dst := bp[js*k : js*k+k*w]
		for jr := 0; jr < w; jr++ {
			row := b.Data[(js+jr)*k : (js+jr)*k+k]
			for p, v := range row {
				dst[p*w+jr] = v
			}
		}
	}
}

// gemmPacked computes output rows [lo, hi) of the m×n product against a
// packed operand: out[i] += a[i]·B with B in packB/packBTrans strip layout.
// Rows are blocked by gemmMC and columns by gemmNC so one block of strips
// stays cache-resident while gemmMC rows sweep it; each 4x4 output tile is
// produced by a register micro-kernel sweeping the full k extent.
func gemmPacked(aData []float64, k, n int, bp, out []float64, lo, hi int) {
	for jc := 0; jc < n; jc += gemmNC {
		nc := n - jc
		if nc > gemmNC {
			nc = gemmNC
		}
		for ic := lo; ic < hi; ic += gemmMC {
			mc := hi - ic
			if mc > gemmMC {
				mc = gemmMC
			}
			for js := jc; js < jc+nc; js += gemmNR {
				w := n - js
				if w > gemmNR {
					w = gemmNR
				}
				strip := bp[js*k : js*k+k*w]
				i := ic
				if w == gemmNR {
					if hasAVX && k > 0 {
						for ; i+gemmMRAsm <= ic+mc; i += gemmMRAsm {
							gemm8x4AVX(&aData[i*k], k, &strip[0], &out[i*n+js], n)
						}
					}
					for ; i+gemmMR <= ic+mc; i += gemmMR {
						micro4x4(aData[i*k:(i+gemmMR)*k], k, strip, out[i*n+js:], n)
					}
				}
				for i < ic+mc {
					r := ic + mc - i
					if r > gemmMR {
						r = gemmMR
					}
					microEdge(aData[i*k:(i+r)*k], k, r, strip, w, out[i*n+js:], n)
					i += r
				}
			}
		}
	}
}

// micro4x4 computes a full 4x4 output tile: sixteen register accumulators
// sweep the entire k extent once (ascending, one accumulator per element —
// the bit-exactness contract) and are stored to the zeroed output with a
// single write each. strip holds 4 packed B columns, p-major.
func micro4x4(a []float64, k int, strip, out []float64, n int) {
	a0, a1, a2, a3 := a[:k], a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	sp := 0
	for p := 0; p < k; p++ {
		b0, b1, b2, b3 := strip[sp], strip[sp+1], strip[sp+2], strip[sp+3]
		sp += 4
		v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
		c00 += float64(v0 * b0)
		c01 += float64(v0 * b1)
		c02 += float64(v0 * b2)
		c03 += float64(v0 * b3)
		c10 += float64(v1 * b0)
		c11 += float64(v1 * b1)
		c12 += float64(v1 * b2)
		c13 += float64(v1 * b3)
		c20 += float64(v2 * b0)
		c21 += float64(v2 * b1)
		c22 += float64(v2 * b2)
		c23 += float64(v2 * b3)
		c30 += float64(v3 * b0)
		c31 += float64(v3 * b1)
		c32 += float64(v3 * b2)
		c33 += float64(v3 * b3)
	}
	o := out[:4]
	o[0], o[1], o[2], o[3] = c00, c01, c02, c03
	o = out[n : n+4]
	o[0], o[1], o[2], o[3] = c10, c11, c12, c13
	o = out[2*n : 2*n+4]
	o[0], o[1], o[2], o[3] = c20, c21, c22, c23
	o = out[3*n : 3*n+4]
	o[0], o[1], o[2], o[3] = c30, c31, c32, c33
}

// microEdge handles the remainder tiles (r ≤ 4 rows, w ≤ 4 columns) with
// the same single-accumulator ascending-k order as micro4x4.
func microEdge(a []float64, k, r int, strip []float64, w int, out []float64, n int) {
	var acc [gemmMR * gemmNR]float64
	for p := 0; p < k; p++ {
		bq := strip[p*w : p*w+w]
		for ir := 0; ir < r; ir++ {
			v := a[ir*k+p]
			ac := acc[ir*gemmNR : ir*gemmNR+w]
			for jr, bv := range bq {
				ac[jr] += float64(v * bv)
			}
		}
	}
	for ir := 0; ir < r; ir++ {
		copy(out[ir*n:ir*n+w], acc[ir*gemmNR:ir*gemmNR+w])
	}
}

// usePacked reports whether the tiled kernel pays for the given problem.
func usePacked(m, k, n int) bool {
	return m >= gemmMinRows && k > 0 && n > 0 &&
		int64(m)*int64(k)*int64(n) >= gemmPackFLOPs
}

// gemmAuto runs the packed kernel over rows [0, m), on the worker pool when
// the product is large enough; bp must already hold the packed operand.
func gemmAuto(aData []float64, m, k, n int, bp, out []float64) {
	if int64(m)*int64(k)*int64(n) >= parallelFLOPThreshold {
		parallelRowsAligned(m, gemmMRAsm, func(lo, hi int) {
			gemmPacked(aData, k, n, bp, out, lo, hi)
		})
		return
	}
	gemmPacked(aData, k, n, bp, out, 0, m)
}

// matMulPacked runs the packed kernel for the row-major m×k matrix aData
// times b (k×n) into out, packing b into pooled scratch.
func matMulPacked(aData []float64, m, k int, b *Tensor, out []float64) {
	n := b.shape[1]
	bp := getScratch(k * n)
	packB(b, *bp)
	gemmAuto(aData, m, k, n, *bp, out)
	putScratch(bp)
}

// MatMulRef is the serial reference GEMM: the plain i-k-j triple loop every
// faster kernel tier is measured against. It exists as a public entry point
// so equivalence tests and benchmarks outside this package can pin the
// faster tiers to it.
func MatMulRef(a, b *Tensor) *Tensor {
	must(checkMatMul("MatMul", a, b))
	out := New(a.shape[0], b.shape[1])
	matMulRows(a, b, out, 0, a.shape[0])
	return out
}

// MatMulTiled runs the cache-blocked packed kernel serially (no worker
// pool) — the "tiled" tier of the kernel hierarchy. Callers normally want
// MatMul, which picks the best tier automatically.
func MatMulTiled(a, b *Tensor) *Tensor {
	must(checkMatMul("MatMul", a, b))
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	if k == 0 || n == 0 || m == 0 {
		return out
	}
	bp := getScratch(k * n)
	packB(b, *bp)
	gemmPacked(a.Data, k, n, *bp, out.Data, 0, m)
	putScratch(bp)
	return out
}

// checkMatMul validates rank-2 conformability for a·b.
func checkMatMul(op string, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return errf(op, "requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	if a.shape[1] != b.shape[0] {
		return errf(op, "inner dimension mismatch %v · %v", a.shape, b.shape)
	}
	return nil
}

// dstFor returns the m×n output tensor of an …Into entry point: dst itself
// when it already has that shape, otherwise a fresh zero tensor. zero
// clears a reused dst for kernels that accumulate into their output, so
// they start from the same +0 a fresh tensor holds; kernels that store
// every element once skip it.
func dstFor(dst *Tensor, m, n int, zero bool) *Tensor {
	if dst == nil || dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return New(m, n)
	}
	if zero {
		dst.Zero()
	}
	return dst
}

// BatMul returns the batched matrix product of two rank-3 tensors:
// [batch, m, k] · [batch, k, n] → [batch, m, n]. Batch slice i is the
// matrix product a[i]·b[i], bit-identical to MatMul on the same slices.
func BatMul(a, b *Tensor) *Tensor { return mustT(BatMulChecked(a, b)) }

// BatMulChecked is BatMul returning an error instead of panicking. Unlike
// MatMulChecked it rejects degenerate shapes (any zero dimension, including
// k = 0): batched storage is stride-indexed, and a zero stride silently
// aliases every slice to the same empty view, so it is refused outright.
func BatMulChecked(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 3 || b.Rank() != 3 {
		return nil, errf("BatMul", "requires rank-3 operands, got %v and %v", a.shape, b.shape)
	}
	if a.shape[0] != b.shape[0] {
		return nil, errf("BatMul", "batch mismatch %v · %v", a.shape, b.shape)
	}
	if a.shape[2] != b.shape[1] {
		return nil, errf("BatMul", "inner dimension mismatch %v · %v", a.shape, b.shape)
	}
	bt, m, k := a.shape[0], a.shape[1], a.shape[2]
	n := b.shape[2]
	if bt == 0 || m == 0 || k == 0 || n == 0 {
		return nil, errf("BatMul", "degenerate shape %v · %v (every dimension must be positive)", a.shape, b.shape)
	}
	out := New(bt, m, n)
	if usePacked(m, k, n) {
		// Pack every batch slice once, then partition the bt·m global rows
		// across the pool; chunk boundaries may land inside a slice, which
		// the per-element accumulation order makes harmless.
		buf := getScratch(bt * k * n)
		bp := *buf
		for i := 0; i < bt; i++ {
			packB(batSlice(b, i, k, n), bp[i*k*n:(i+1)*k*n])
		}
		rows := bt * m
		run := func(lo, hi int) {
			for g := lo; g < hi; {
				bi := g / m
				r0 := g % m
				r1 := m
				if rem := hi - g; r0+rem < m {
					r1 = r0 + rem
				}
				gemmPacked(a.Data[bi*m*k:], k, n, bp[bi*k*n:(bi+1)*k*n], out.Data[bi*m*n:], r0, r1)
				g += r1 - r0
			}
		}
		if int64(rows)*int64(k)*int64(n) >= parallelFLOPThreshold {
			parallelRowsAligned(rows, gemmMRAsm, run)
		} else {
			run(0, rows)
		}
		putScratch(buf)
		return out, nil
	}
	small := useSmall(m, k, n)
	for i := 0; i < bt; i++ {
		av := batSlice(a, i, m, k)
		bv := batSlice(b, i, k, n)
		ov := batSlice(out, i, m, n)
		if !small || !smallNN(av.Data, m, k, bv.Data, n, ov.Data, nil, false) {
			ov.Zero()
			matMulRows(av, bv, ov, 0, m)
		}
	}
	return out, nil
}

// batSlice views batch element i of a rank-3 tensor as an r×c matrix
// sharing the underlying storage.
func batSlice(t *Tensor, i, r, c int) *Tensor {
	return &Tensor{shape: []int{r, c}, Data: t.Data[i*r*c : (i+1)*r*c]}
}
