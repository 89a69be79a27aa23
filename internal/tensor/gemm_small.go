package tensor

import "math"

// This file is the small tier of the kernel hierarchy (see gemm.go): one
// kernel for each product a Dense layer makes — a·b, aᵀ·b and a·bᵀ — at
// shapes below usePacked's threshold, where repacking B cannot pay for
// itself and the reference loops' inner loops are only a few elements
// wide. Each output element is one register accumulator over ascending k,
// one rounded multiply and one rounded add per step, stored once: no FMA,
// no reassociation, no allocation.
//
// On amd64 with AVX the products run gemmSmallAVX (gemm_amd64.s): one
// YMM lane per output, four rows by four columns per tile, VMULPD then
// VADDPD. It reads A through a row stride and a k stride, so a·b and aᵀ·b
// share it, and B row-major, so a·bᵀ first transposes B into pooled
// scratch, which it does only where that pays (see smallNT). Its store has
// three epilogues: for a·b it can add a bias row after the checksum
// (MatMulAddRowInto) and then keep only the outputs > 0, ReLU's select
// (MatMulAddRowReLUInto); for a·bᵀ it can keep only the outputs whose
// element of a same-shaped gate matrix is > 0, ReLU's backward gate
// (MatMulTransBGateInto). With both strides 0 it reads one 1.0 as a row of
// ones (SumRowsInto). Elsewhere, and with hasAVX off, register-tiled Go
// loops run instead, with every product written float64(x*y), which the Go
// spec forbids fusing, and the bias add, the select and the gate run as
// passes over the stored product. Their rows are taken in pairs and
// columns in fours; the odd row and the last n%4 columns run the same loop
// narrowed. Each operand row is resliced to length k so the compiler drops
// its bounds checks inside the k loop. Both paths give the same bits: the
// select and the gate are masks of an element's bits, all ones where the
// deciding value is > 0 (ordered, so never at a NaN) and zero elsewhere.
//
// Exactness. Both paths multiply through a zero the reference skips, and
// a register accumulator keeps its own NaN where the reference's memory
// accumulator takes the incoming product's, so only non-NaN results are
// guaranteed to match. Those match for every input: they do not depend on
// operand order, and a skipped term whose B element is finite adds ±0 to
// an accumulator that starts at +0 and so is never −0, which changes no
// bit; a skipped term against a non-finite B makes the output NaN. Each
// kernel therefore folds the outputs it stores into one checksum, which is
// NaN whenever an output is (or, harmlessly, when outputs of opposite
// infinite sign meet), and reports whether it stayed a number. When it did
// not, the caller reruns the product on the reference loop, whose bits are
// the definition. Finite operands reach that path only when products
// overflow to infinities of both signs.

// smallMaxKN is the most elements of B the small tier walks by column
// strips: 1024 float64s are 8 KiB, so B stays in L1 while every row pair,
// or every four-row block of the AVX kernel, sweeps it. It also bounds the
// pooled scratch that a·bᵀ transposes B into for the AVX kernel.
const smallMaxKN = 1024

// useSmall reports whether a sub-threshold a·b or aᵀ·b takes the small
// tier: at least two rows to share each strip of B, and a B that fits in
// L1. Outside that rule the tiled loops lost to the reference loop, which
// walks B along its rows: by 1.6–3× on 1×512×512 and 1.2–1.6× on
// 4×256×256, and by up to 1.4× on single rows of 24 or more columns. a·bᵀ
// reads B along its rows too, so smallNT takes every sub-threshold shape.
func useSmall(m, k, n int) bool {
	return m >= 2 && k*n <= smallMaxKN && !usePacked(m, k, n)
}

// smallNN computes out = a·b for the row-major m×k matrix a and k×n
// matrix b, storing every element of the m×n out, and then, when row is
// not nil, adds the n-element row to every output row, and with relu set
// keeps each output > 0 and makes the others +0. It reports false when a
// product may be NaN, and out is then unspecified; a NaN the add makes is
// the add's own and is reported as true.
func smallNN(a []float64, m, k int, b []float64, n int, out, row []float64, relu bool) bool {
	if hasAVX && m > 0 && k > 0 && n > 0 {
		var bias *float64
		if row != nil {
			bias = &row[0]
		}
		return gemmSmallAVX(&a[0], k, 1, &b[0], m, k, n, &out[0], bias, nil, relu)
	}
	var chk float64
	i := 0
	for ; i+2 <= m; i += 2 {
		a0, a1 := a[i*k:][:k], a[(i+1)*k:][:k]
		o0, o1 := out[i*n:][:n], out[(i+1)*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				y := b[p*n+j:][:4]
				c00 += float64(x0 * y[0])
				c01 += float64(x0 * y[1])
				c02 += float64(x0 * y[2])
				c03 += float64(x0 * y[3])
				c10 += float64(x1 * y[0])
				c11 += float64(x1 * y[1])
				c12 += float64(x1 * y[2])
				c13 += float64(x1 * y[3])
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
			chk += (c00 + c01) + (c02 + c03) + ((c10 + c11) + (c12 + c13))
		}
		for ; j < n; j++ {
			var c0, c1 float64
			for p, x0 := range a0 {
				y := b[p*n+j]
				c0 += float64(x0 * y)
				c1 += float64(a1[p] * y)
			}
			o0[j], o1[j] = c0, c1
			chk += c0 + c1
		}
	}
	if i < m {
		a0, o0 := a[i*k:][:k], out[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			for p, x := range a0 {
				y := b[p*n+j:][:4]
				c0 += float64(x * y[0])
				c1 += float64(x * y[1])
				c2 += float64(x * y[2])
				c3 += float64(x * y[3])
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c0, c1, c2, c3
			chk += (c0 + c1) + (c2 + c3)
		}
		for ; j < n; j++ {
			var c float64
			for p, x := range a0 {
				c += float64(x * b[p*n+j])
			}
			o0[j] = c
			chk += c
		}
	}
	if math.IsNaN(chk) {
		return false
	}
	if row != nil {
		addRow(out[:m*n], row)
	}
	if relu {
		selectPositive(out[:m*n])
	}
	return true
}

// smallTN computes out = aᵀ·b for the row-major k×m matrix a and k×n
// matrix b, storing every element of the m×n out. Output row i reads
// column i of a, so both operands are walked down their rows. It reports
// false when an output may be NaN.
func smallTN(a []float64, m, k int, b []float64, n int, out []float64) bool {
	if hasAVX && m > 0 && k > 0 && n > 0 {
		return gemmSmallAVX(&a[0], 1, m, &b[0], m, k, n, &out[0], nil, nil, false)
	}
	var chk float64
	i := 0
	for ; i+2 <= m; i += 2 {
		o0, o1 := out[i*n:][:n], out[(i+1)*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for p := 0; p < k; p++ {
				x := a[p*m+i:][:2]
				y := b[p*n+j:][:4]
				c00 += float64(x[0] * y[0])
				c01 += float64(x[0] * y[1])
				c02 += float64(x[0] * y[2])
				c03 += float64(x[0] * y[3])
				c10 += float64(x[1] * y[0])
				c11 += float64(x[1] * y[1])
				c12 += float64(x[1] * y[2])
				c13 += float64(x[1] * y[3])
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
			chk += (c00 + c01) + (c02 + c03) + ((c10 + c11) + (c12 + c13))
		}
		for ; j < n; j++ {
			var c0, c1 float64
			for p := 0; p < k; p++ {
				x := a[p*m+i:][:2]
				y := b[p*n+j]
				c0 += float64(x[0] * y)
				c1 += float64(x[1] * y)
			}
			o0[j], o1[j] = c0, c1
			chk += c0 + c1
		}
	}
	if i < m {
		o0 := out[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			for p := 0; p < k; p++ {
				x := a[p*m+i]
				y := b[p*n+j:][:4]
				c0 += float64(x * y[0])
				c1 += float64(x * y[1])
				c2 += float64(x * y[2])
				c3 += float64(x * y[3])
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c0, c1, c2, c3
			chk += (c0 + c1) + (c2 + c3)
		}
		for ; j < n; j++ {
			var c float64
			for p := 0; p < k; p++ {
				c += float64(a[p*m+i] * b[p*n+j])
			}
			o0[j] = c
			chk += c
		}
	}
	return !math.IsNaN(chk)
}

// smallNT computes out = a·bᵀ for the row-major m×k matrix a and n×k
// matrix b, storing every element of the m×n out. Every operand row is
// contiguous in k, so the Go loop has no width limit and also takes single
// rows. The AVX kernel takes a B that fits in L1 once it is transposed,
// and at least one full block of four rows: transposing costs about 1.5 ns
// an element, so with one to three rows it cost more than the kernel saved
// (1×3×8 took 117 ns against 42, 3×64×8 1,364 ns against 833), and from
// four rows on it paid (4×64×8 1,113 ns against 1,243, 8×64×8 1,538
// against 2,447). When gate is not nil it is a row-major m×n matrix, and
// each output is kept where gate's element at its place is > 0 and made
// +0 elsewhere. It reports false when a product may be NaN, and out is
// then unspecified.
func smallNT(a []float64, m, k int, b []float64, n int, out, gate []float64) bool {
	if hasAVX && m >= 4 && k > 0 && n > 0 && k*n <= smallMaxKN {
		var g *float64
		if gate != nil {
			g = &gate[0]
		}
		bt := getScratch(k * n)
		transposeInto(*bt, b, n, k)
		ok := gemmSmallAVX(&a[0], k, 1, &(*bt)[0], m, k, n, &out[0], nil, g, false)
		putScratch(bt)
		return ok
	}
	var chk float64
	i := 0
	for ; i+2 <= m; i += 2 {
		a0, a1 := a[i*k:][:k], a[(i+1)*k:][:k]
		o0, o1 := out[i*n:][:n], out[(i+1)*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1, b2, b3 := b[j*k:][:k], b[(j+1)*k:][:k], b[(j+2)*k:][:k], b[(j+3)*k:][:k]
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
				c00 += float64(x0 * y0)
				c01 += float64(x0 * y1)
				c02 += float64(x0 * y2)
				c03 += float64(x0 * y3)
				c10 += float64(x1 * y0)
				c11 += float64(x1 * y1)
				c12 += float64(x1 * y2)
				c13 += float64(x1 * y3)
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
			chk += (c00 + c01) + (c02 + c03) + ((c10 + c11) + (c12 + c13))
		}
		for ; j < n; j++ {
			bj := b[j*k:][:k]
			var c0, c1 float64
			for p, x0 := range a0 {
				y := bj[p]
				c0 += float64(x0 * y)
				c1 += float64(a1[p] * y)
			}
			o0[j], o1[j] = c0, c1
			chk += c0 + c1
		}
	}
	if i < m {
		a0, o0 := a[i*k:][:k], out[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1, b2, b3 := b[j*k:][:k], b[(j+1)*k:][:k], b[(j+2)*k:][:k], b[(j+3)*k:][:k]
			var c0, c1, c2, c3 float64
			for p, x := range a0 {
				c0 += float64(x * b0[p])
				c1 += float64(x * b1[p])
				c2 += float64(x * b2[p])
				c3 += float64(x * b3[p])
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c0, c1, c2, c3
			chk += (c0 + c1) + (c2 + c3)
		}
		for ; j < n; j++ {
			bj := b[j*k:][:k]
			var c float64
			for p, x := range a0 {
				c += float64(x * bj[p])
			}
			o0[j] = c
			chk += c
		}
	}
	if math.IsNaN(chk) {
		return false
	}
	if gate != nil {
		gatePositive(out[:m*n], gate)
	}
	return true
}

// positive returns all ones when v > 0 and zero otherwise, NaN included:
// the lane mask gemmSmallAVX's VCMPPD makes, as a conditional move rather
// than a branch.
func positive(v float64) uint64 {
	var m uint64
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// selectPositive keeps each element of data that is > 0 and makes every
// other one +0 (NaN, ±0 and negatives): ReLU's forward select.
func selectPositive(data []float64) {
	for i, v := range data {
		data[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
	}
}

// gatePositive keeps each element of data whose element of gate at the
// same index is > 0 and makes every other one +0: ReLU's backward gate.
func gatePositive(data, gate []float64) {
	gate = gate[:len(data)]
	for i, v := range data {
		data[i] = math.Float64frombits(math.Float64bits(v) & positive(gate[i]))
	}
}
