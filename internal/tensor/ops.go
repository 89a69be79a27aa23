package tensor

import "math"

// Add returns t + u element-wise. Shapes must match.
func Add(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a + b }) }

// Sub returns t - u element-wise. Shapes must match.
func Sub(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a - b }) }

// Mul returns the element-wise (Hadamard) product t ⊙ u. Shapes must match.
func Mul(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a * b }) }

// Div returns t / u element-wise. Shapes must match.
func Div(t, u *Tensor) *Tensor { return zipNew(t, u, func(a, b float64) float64 { return a / b }) }

func zipNew(t, u *Tensor, f func(a, b float64) float64) *Tensor {
	must(checkSameShape("zip", t, u))
	out := New(t.shape...)
	for i := range t.Data {
		out.Data[i] = f(t.Data[i], u.Data[i])
	}
	return out
}

// AddInPlace adds u into t element-wise.
func (t *Tensor) AddInPlace(u *Tensor) {
	must(checkSameShape("AddInPlace", t, u))
	for i := range t.Data {
		t.Data[i] += u.Data[i]
	}
}

// AxpyInPlace computes t += alpha*u element-wise.
func (t *Tensor) AxpyInPlace(alpha float64, u *Tensor) {
	must(checkSameShape("AxpyInPlace", t, u))
	for i := range t.Data {
		t.Data[i] += float64(alpha * u.Data[i])
	}
}

// Scale returns alpha * t.
func Scale(alpha float64, t *Tensor) *Tensor {
	out := New(t.shape...)
	for i, v := range t.Data {
		out.Data[i] = alpha * v
	}
	return out
}

// ScaleInPlace multiplies every element of t by alpha.
func (t *Tensor) ScaleInPlace(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Apply returns a new tensor with f applied to every element.
func Apply(t *Tensor, f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f to every element of t.
func (t *Tensor) ApplyInPlace(f func(float64) float64) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// MatMul returns the matrix product of two rank-2 tensors: (m×k)·(k×n) → m×n.
// Products worth blocking run the cache-tiled packed kernel (gemm.go),
// partitioned across the persistent worker pool once they cross the
// parallel threshold; smaller ones run the small-tier kernel
// (gemm_small.go) or the serial reference loop, picked from the shapes.
// Every tier accumulates each output element in the same ascending-k order
// and gives the reference kernel's bits (see gemm.go for where that holds).
func MatMul(a, b *Tensor) *Tensor { return mustT(MatMulChecked(a, b)) }

// MatMulChecked is MatMul returning an error instead of panicking on a
// shape mismatch.
func MatMulChecked(a, b *Tensor) (*Tensor, error) { return matMulInto(nil, a, b, nil) }

// MatMulInto is MatMul writing into dst, reusing its storage when dst is
// already m×n; nil or a wrongly shaped dst allocates. It returns the tensor
// holding the result. dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor { return mustT(matMulInto(dst, a, b, nil)) }

// MatMulAddRowInto is MatMulInto followed by AddRowVectorInPlace with the
// 1×n row, a Dense layer's xW + b, and gives those bits. On amd64 with AVX
// a small-tier product adds row in the kernel's epilogue instead of in a
// second pass over the output. dst must not alias a, b or row.
func MatMulAddRowInto(dst, a, b, row *Tensor) *Tensor { return mustT(matMulInto(dst, a, b, row)) }

// matMulInto computes a·b into dst under MatMulInto's reuse rule and then,
// when row is not nil, adds row to every output row.
func matMulInto(dst, a, b, row *Tensor) (*Tensor, error) {
	if err := checkMatMul("MatMul", a, b); err != nil {
		return nil, err
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if row != nil && !isRowOf(row, n) {
		return nil, errf("MatMulAddRow", "row %v does not match product columns %d", row.shape, n)
	}
	var out *Tensor
	switch {
	case useSmall(m, k, n):
		out = dstFor(dst, m, n, false)
		var rowData []float64
		if row != nil {
			rowData = row.Data
		}
		if smallNN(a.Data, m, k, b.Data, n, out.Data, rowData) {
			return out, nil
		}
		out.Zero()
		matMulRows(a, b, out, 0, m)
	case usePacked(m, k, n):
		out = dstFor(dst, m, n, false)
		matMulPacked(a.Data, m, k, b, out.Data)
	default:
		out = dstFor(dst, m, n, true)
		if int64(m)*int64(n)*int64(k) >= parallelFLOPThreshold && m >= 2 {
			parallelRows(m, func(lo, hi int) {
				matMulRows(a, b, out, lo, hi)
			})
		} else {
			matMulRows(a, b, out, 0, m)
		}
	}
	if row != nil {
		addRow(out.Data, row.Data)
	}
	return out, nil
}

// matMulRows computes output rows [lo, hi) of a·b into out. It is the
// reference kernel of the GEMM hierarchy (see gemm.go): i-k-j order, one
// memory accumulator per output element, ascending k, and a zero element
// of a skips its term.
func matMulRows(a, b, out *Tensor, lo, hi int) {
	k, n := a.shape[1], b.shape[1]
	for i := lo; i < hi; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for p, av := range a.Data[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}

// MatMulTransB returns a · bᵀ for rank-2 tensors: (m×k)·(n×k)ᵀ → m×n.
// Used by backward passes to avoid materialising transposes. Large
// products run fused through the tiled engine: the packing pass reads b's
// rows directly (they are already the columns the kernel wants), so the
// transpose is free. Smaller ones run the small tier's a·bᵀ kernel.
func MatMulTransB(a, b *Tensor) *Tensor { return mustT(MatMulTransBChecked(a, b)) }

// MatMulTransBChecked is MatMulTransB returning an error instead of
// panicking on a shape mismatch.
func MatMulTransBChecked(a, b *Tensor) (*Tensor, error) { return matMulTransBInto(nil, a, b) }

// MatMulTransBInto is MatMulTransB writing into dst under MatMulInto's
// reuse rule.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor { return mustT(matMulTransBInto(dst, a, b)) }

func matMulTransBInto(dst, a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, errf("MatMulTransB", "requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, errf("MatMulTransB", "inner dimension mismatch %v · %vᵀ", a.shape, b.shape)
	}
	// Both paths store every output element once, so a reused dst needs
	// no zeroing.
	out := dstFor(dst, m, n, false)
	if usePacked(m, k, n) {
		bp := getScratch(k * n)
		packBTrans(b, *bp)
		gemmAuto(a.Data, m, k, n, *bp, out.Data)
		putScratch(bp)
		return out, nil
	}
	if !smallNT(a.Data, m, k, b.Data, n, out.Data) {
		matMulTransBRows(a, b, out)
	}
	return out, nil
}

// matMulTransBRows computes out = a·bᵀ with one dot product per output
// element over ascending k, no zero skip. It is the reference for a·bᵀ:
// smallNT matches it on every result that is not NaN, and hands it the
// products where a NaN's payload depends on which operand each step kept.
func matMulTransBRows(a, b, out *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += float64(arow[p] * brow[p])
			}
			orow[j] = s
		}
	}
}

// MatMulTransA returns aᵀ · b for rank-2 tensors: (k×m)ᵀ·(k×n) → m×n.
// Products the small tier takes run its aᵀ·b loop directly. Everything
// else transposes a (an exact element move costing O(k·m)) and runs the
// packed tier or the serial reference loop on it, which gives the same
// per-element sums, zero skip included, as walking a's columns.
func MatMulTransA(a, b *Tensor) *Tensor { return mustT(MatMulTransAChecked(a, b)) }

// MatMulTransAChecked is MatMulTransA returning an error instead of
// panicking on a shape mismatch.
func MatMulTransAChecked(a, b *Tensor) (*Tensor, error) { return matMulTransAInto(nil, a, b) }

// MatMulTransAInto is MatMulTransA writing into dst under MatMulInto's
// reuse rule.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor { return mustT(matMulTransAInto(dst, a, b)) }

func matMulTransAInto(dst, a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, errf("MatMulTransA", "requires rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, errf("MatMulTransA", "inner dimension mismatch %vᵀ · %v", a.shape, b.shape)
	}
	if useSmall(m, k, n) {
		out := dstFor(dst, m, n, false)
		if smallTN(a.Data, m, k, b.Data, n, out.Data) {
			return out, nil
		}
		dst = out
	}
	// A k×1 or 1×m matrix is laid out like its transpose; any other a is
	// transposed into pooled scratch.
	at := a.Data
	var buf *[]float64
	if m > 1 && k > 1 {
		buf = getScratch(m * k)
		at = *buf
		transposeInto(at, a.Data, k, m)
	}
	var out *Tensor
	if usePacked(m, k, n) {
		out = dstFor(dst, m, n, false)
		matMulPacked(at, m, k, b, out.Data)
	} else {
		out = dstFor(dst, m, n, true)
		matMulRows(&Tensor{shape: []int{m, k}, Data: at}, b, out, 0, m)
	}
	if buf != nil {
		putScratch(buf)
	}
	return out, nil
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(errf("Transpose", "requires rank 2, got %v", t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	transposeInto(out.Data, t.Data, m, n)
	return out
}

// transposeInto writes the n×m transpose of the row-major m×n matrix src
// into dst.
func transposeInto(dst, src []float64, m, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = src[i*n+j]
		}
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic(errf("Max", "empty tensor"))
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic(errf("Min", "empty tensor"))
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns the largest absolute value, or 0 for an empty tensor.
func (t *Tensor) AbsMax() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean (Frobenius) norm.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns the index of the maximum value in row i of a rank-2
// tensor, breaking ties toward the lower index.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Row(i)
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// SumRows reduces a rank-2 tensor over its rows, returning a 1×n tensor
// where out[j] = Σ_i t[i,j]. Used for bias gradients.
func SumRows(t *Tensor) *Tensor { return SumRowsInto(nil, t) }

// SumRowsInto is SumRows writing into dst, reusing it when it is already
// 1×n; it returns the tensor holding the result. Each column sums from +0
// over ascending rows. On amd64 with AVX it runs the small tier's kernel
// as a row of ones times t: its A is the variable one, read at row and k
// stride 0, and 1·x = x exactly, so each lane adds t's elements in the
// scalar loop's order and gives its bits. A column sum that comes out NaN,
// whose payload depends on operand order, is redone by the scalar loop.
func SumRowsInto(dst, t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(errf("SumRows", "requires rank 2, got %v", t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	if hasAVX && m > 0 && n > 0 {
		out := dstFor(dst, 1, n, false)
		if gemmSmallAVX(&one, 0, 0, &t.Data[0], 1, m, n, &out.Data[0], nil) {
			return out
		}
		dst = out
	}
	out := dstFor(dst, 1, n, true)
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// one is the element SumRowsInto's ones row reads.
var one = 1.0

// AddRowVectorInPlace adds a 1×n row vector to every row of an m×n tensor
// (broadcast over the leading axis).
func AddRowVectorInPlace(t, v *Tensor) {
	if t.Rank() != 2 || !isRowOf(v, t.shape[1]) {
		panic(errf("AddRowVectorInPlace", "shapes %v, %v", t.shape, v.shape))
	}
	addRow(t.Data, v.Data)
}

// isRowOf reports whether v is a 1×n row vector.
func isRowOf(v *Tensor, n int) bool {
	return v.Rank() == 2 && v.shape[0] == 1 && v.shape[1] == n
}

// addRow adds row to each len(row)-element row of the row-major data,
// element by element.
func addRow(data, row []float64) {
	n := len(row)
	if n == 0 {
		return
	}
	for i := 0; i < len(data); i += n {
		o := data[i : i+n]
		for j, v := range row {
			o[j] += v
		}
	}
}

// Equal reports whether t and u have the same shape and every pair of
// elements matches: a value equals itself (infinities of the same sign
// included), two NaNs count as equal, a NaN never equals a number, and any
// other pair must lie within tol of each other.
func Equal(t, u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, x := range t.Data {
		y := u.Data[i]
		if x == y || math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		if !(math.Abs(x-y) <= tol) {
			return false
		}
	}
	return true
}
