package tensor

import "sync"

// This file is the f32 tier of the kernel hierarchy (see gemm.go): an
// opt-in float32 storage mode for serving-side inference, where halving
// memory traffic matters more than the last bits of precision. The kernel
// structure mirrors the float64 engine — packed column strips, a register
// micro-kernel sweeping the full k extent with one accumulator per output
// element — but accumulates in float32, so results track the float64
// reference within bounded ULP error rather than bit-exactly. Strips are
// one vector register of float32 columns wide (stripWidth): 16, a ZMM
// register, where the CPU and OS have AVX-512, so an 8x16 assembly kernel
// covers every full tile, and 8, a YMM register, elsewhere, with an 8x8
// AVX kernel (gemm_amd64.s). On an AVX-512 host a remainder of 8–15
// columns still gets an 8-wide strip and the YMM kernel. packB32 copies B
// 16 rows at a time across every strip, as packB does. Every path —
// AVX-512, AVX, the scalar 4x8 kernel, the edge kernel and the i-k-j loop
// for small shapes — rounds each multiply and each add separately in
// ascending k, so all of them are bit-identical to each other.

// Tensor32 is a dense row-major float32 tensor. It is deliberately
// minimal: the serving path needs construction, conversion, matrix
// multiply, bias add, ReLU, and argmax — training stays float64.
type Tensor32 struct {
	shape []int
	Data  []float32
}

// New32 allocates a zeroed float32 tensor with the given shape.
func New32(shape ...int) *Tensor32 {
	size := 1
	for _, d := range shape {
		if d < 0 {
			panic(errf("New32", "negative dimension in %v", shape))
		}
		size *= d
	}
	return &Tensor32{shape: append([]int(nil), shape...), Data: make([]float32, size)}
}

// Rank returns the number of dimensions.
func (t *Tensor32) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor32) Dim(i int) int { return t.shape[i] }

// Size returns the total element count.
func (t *Tensor32) Size() int { return len(t.Data) }

// Row returns row i of a rank-2 tensor as a shared slice.
func (t *Tensor32) Row(i int) []float32 {
	n := t.shape[1]
	return t.Data[i*n : (i+1)*n]
}

// ArgMaxRow returns the index of the maximum value in row i of a rank-2
// tensor, breaking ties toward the lower index (same contract as Tensor).
func (t *Tensor32) ArgMaxRow(i int) int {
	row := t.Row(i)
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// ToFloat32 converts a float64 tensor to float32 storage, rounding each
// element once.
func ToFloat32(t *Tensor) *Tensor32 {
	out := New32(t.shape...)
	for i, v := range t.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// ToFloat64 widens back to float64 storage (exact: every float32 is
// representable as a float64).
func (t *Tensor32) ToFloat64() *Tensor {
	out := New(t.shape...)
	for i, v := range t.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// scratchPool32 recycles float32 packing buffers, like scratchPool.
var scratchPool32 sync.Pool

func getScratch32(n int) *[]float32 {
	if v := scratchPool32.Get(); v != nil {
		if s := v.(*[]float32); cap(*s) >= n {
			*s = (*s)[:n]
			return s
		}
	}
	s := make([]float32, n)
	return &s
}

func putScratch32(s *[]float32) {
	scratchPool32.Put(s)
}

// MatMul32 returns the float32 matrix product (m×k)·(k×n) → m×n.
func MatMul32(a, b *Tensor32) *Tensor32 {
	out, err := MatMul32Checked(a, b)
	must(err)
	return out
}

// MatMul32Checked is MatMul32 returning an error instead of panicking on a
// shape mismatch. Large products run the packed tiled kernel, on the worker
// pool above parallelFLOPThreshold; small ones the i-k-j reference loop.
// Both accumulate each output element in float32 over ascending k, so the
// two paths are bit-identical to each other and within bounded ULP error of
// the float64 reference.
func MatMul32Checked(a, b *Tensor32) (*Tensor32, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, errf("MatMul32", "requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	if a.shape[1] != b.shape[0] {
		return nil, errf("MatMul32", "inner dimension mismatch %v · %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New32(m, n)
	if usePacked(m, k, n) {
		buf := getScratch32(k * n)
		bp := *buf
		packB32(b, bp)
		if int64(m)*int64(k)*int64(n) >= parallelFLOPThreshold {
			parallelRowsAligned(m, gemmMRAsm, func(lo, hi int) {
				gemmPacked32(a.Data, k, n, bp, out.Data, lo, hi)
			})
		} else {
			gemmPacked32(a.Data, k, n, bp, out.Data, 0, m)
		}
		putScratch32(buf)
		return out, nil
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out, nil
}

// packB32 is packB for float32 operands: strips as wide as stripWidth
// says for base width gemmNR32, p-major, copied packRows rows at a time.
func packB32(b *Tensor32, bp []float32) {
	k, n := b.shape[0], b.shape[1]
	for p0 := 0; p0 < k; p0 += packRows {
		p1 := min(p0+packRows, k)
		for js, w := 0, 0; js < n; js += w {
			w = stripWidth(js, n, gemmNR32)
			dst := bp[js*k : js*k+k*w]
			for p := p0; p < p1; p++ {
				copy(dst[p*w:p*w+w], b.Data[p*n+js:p*n+js+w])
			}
		}
	}
}

// gemmPacked32 is gemmPacked for float32: the same blocking over strips
// twice as many columns wide. Full tiles run the 8x16 AVX-512 kernel on
// 16-wide strips, and the 8x8 AVX kernel where available and then the
// scalar 4x8 kernel on 8-wide ones; microEdge32 takes the row and column
// remainders.
func gemmPacked32(aData []float32, k, n int, bp, out []float32, lo, hi int) {
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
			for js, w := jc, 0; js < jc+nc; js += w {
				w = stripWidth(js, n, gemmNR32)
				strip := bp[js*k : js*k+k*w]
				i := ic
				switch w { // k > 0: usePacked guarantees it
				case 2 * gemmNR32: // only on AVX-512 hosts
					for ; i+gemmMRAsm <= ic+mc; i += gemmMRAsm {
						gemm8x16AVX512f32(&aData[i*k], k, &strip[0], &out[i*n+js], n)
					}
				case gemmNR32:
					if hasAVX {
						for ; i+gemmMRAsm <= ic+mc; i += gemmMRAsm {
							gemm8x8AVX32(&aData[i*k], k, &strip[0], &out[i*n+js], n)
						}
					}
					for ; i+gemmMR <= ic+mc; i += gemmMR {
						micro4x8f32(aData[i*k:(i+gemmMR)*k], k, strip, out[i*n+js:], n)
					}
				}
				for i < ic+mc {
					r := ic + mc - i
					if r > gemmMR {
						r = gemmMR
					}
					microEdge32(aData[i*k:(i+r)*k], k, r, strip, w, out[i*n+js:], n)
					i += r
				}
			}
		}
	}
}

// micro4x8f32 is the pure-Go kernel for a full 4x8 tile: 32 accumulators,
// one per output element, sweep the k extent in ascending order, the same
// per-element arithmetic as the AVX kernel's lanes.
func micro4x8f32(a []float32, k int, strip, out []float32, n int) {
	a0, a1, a2, a3 := a[:k], a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	var c00, c01, c02, c03, c04, c05, c06, c07 float32
	var c10, c11, c12, c13, c14, c15, c16, c17 float32
	var c20, c21, c22, c23, c24, c25, c26, c27 float32
	var c30, c31, c32, c33, c34, c35, c36, c37 float32
	sp := strip[:8*k]
	for p := 0; p < k; p++ {
		b := sp[p*8 : p*8+8]
		v := a0[p]
		c00 += float32(v * b[0])
		c01 += float32(v * b[1])
		c02 += float32(v * b[2])
		c03 += float32(v * b[3])
		c04 += float32(v * b[4])
		c05 += float32(v * b[5])
		c06 += float32(v * b[6])
		c07 += float32(v * b[7])
		v = a1[p]
		c10 += float32(v * b[0])
		c11 += float32(v * b[1])
		c12 += float32(v * b[2])
		c13 += float32(v * b[3])
		c14 += float32(v * b[4])
		c15 += float32(v * b[5])
		c16 += float32(v * b[6])
		c17 += float32(v * b[7])
		v = a2[p]
		c20 += float32(v * b[0])
		c21 += float32(v * b[1])
		c22 += float32(v * b[2])
		c23 += float32(v * b[3])
		c24 += float32(v * b[4])
		c25 += float32(v * b[5])
		c26 += float32(v * b[6])
		c27 += float32(v * b[7])
		v = a3[p]
		c30 += float32(v * b[0])
		c31 += float32(v * b[1])
		c32 += float32(v * b[2])
		c33 += float32(v * b[3])
		c34 += float32(v * b[4])
		c35 += float32(v * b[5])
		c36 += float32(v * b[6])
		c37 += float32(v * b[7])
	}
	o := out[:8]
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c00, c01, c02, c03, c04, c05, c06, c07
	o = out[n : n+8]
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c10, c11, c12, c13, c14, c15, c16, c17
	o = out[2*n : 2*n+8]
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c20, c21, c22, c23, c24, c25, c26, c27
	o = out[3*n : 3*n+8]
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// microEdge32 handles the remainder tiles (r ≤ 4 rows, w ≤ 16 columns)
// in the same single-accumulator ascending-k order.
func microEdge32(a []float32, k, r int, strip []float32, w int, out []float32, n int) {
	const ws = 2 * gemmNR32 // the widest strip
	var acc [gemmMR * ws]float32
	for p := 0; p < k; p++ {
		bq := strip[p*w : p*w+w]
		for ir := 0; ir < r; ir++ {
			v := a[ir*k+p]
			ac := acc[ir*ws : ir*ws+w]
			for jr, bv := range bq {
				ac[jr] += float32(v * bv)
			}
		}
	}
	for ir := 0; ir < r; ir++ {
		copy(out[ir*n:ir*n+w], acc[ir*ws:ir*ws+w])
	}
}

// AddRowVector32InPlace adds a 1×n row vector to every row of an m×n
// tensor in place (the inference bias add).
func AddRowVector32InPlace(t, v *Tensor32) {
	if t.Rank() != 2 || v.Rank() != 2 || v.shape[0] != 1 || v.shape[1] != t.shape[1] {
		panic(errf("AddRowVector32", "shapes %v, %v", t.shape, v.shape))
	}
	m, n := t.shape[0], t.shape[1]
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
}

// ReLU32InPlace clamps negative elements to zero in place.
func ReLU32InPlace(t *Tensor32) {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}
