package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The kernel-equivalence suite: every faster tier of the GEMM hierarchy is
// pinned to the serial float64 reference — bit-exactly for the f64 tiers,
// within bounded ULP error for the f32 tier — across the edge shapes that
// exercise tile remainders, single rows, and degenerate dimensions.

// equivShapes covers 1×1, m=1, tile-multiple and non-multiple dims, the
// AVX 8-row boundary, and shapes spanning the usePacked threshold. 256³ is
// the one shape wider than a gemmNC column block and past
// parallelFLOPThreshold, so MatMulTiled crosses cache blocks in both
// dimensions and MatMul takes the worker pool. The last six are the Dense
// layers of the learned-index and day MLPs, which the small tier takes in
// every orientation.
var equivShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{2, 3, 4},
	{4, 4, 4},
	{5, 5, 5},
	{7, 9, 3},
	{8, 8, 8},
	{8, 33, 4},
	{9, 17, 9},
	{12, 64, 12},
	{16, 16, 16},
	{17, 31, 13},
	{23, 64, 41},
	{32, 32, 32},
	{33, 65, 29},
	{48, 100, 48},
	{64, 64, 64},
	{65, 129, 67},
	{129, 65, 33},
	{256, 256, 256},
	{64, 3, 8},
	{64, 8, 2},
	{16, 6, 24},
	{16, 24, 3},
	{3, 64, 8},
	{8, 64, 2},
}

func randMat(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func TestGEMMTiersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range equivShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		ref := MatMulRef(a, b)
		if got := MatMulTiled(a, b); !Equal(got, ref, 0) {
			t.Errorf("tiled != reference at %dx%dx%d", s.m, s.k, s.n)
		}
		if got := MatMul(a, b); !Equal(got, ref, 0) {
			t.Errorf("auto != reference at %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

func TestTransposedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range equivShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		ref := MatMulRef(a, b)
		// a · (bᵀ)ᵀ through the fused TransB path.
		if got := MatMulTransB(a, Transpose(b)); !Equal(got, ref, 0) {
			t.Errorf("TransB != reference at %dx%dx%d", s.m, s.k, s.n)
		}
		// (aᵀ)ᵀ · b through the fused TransA path. The large-shape tier
		// re-enters the packed MatMul after an exact transpose, so it too
		// must be bit-identical.
		if got := MatMulTransA(Transpose(a), b); !Equal(got, ref, 0) {
			t.Errorf("TransA != reference at %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

// The …Into entry points must write the bits their allocating forms do,
// whatever dst held before. A reused dst starts full of NaN, so a kernel
// that accumulates into an unzeroed buffer shows up as a mismatch; a dst
// of the wrong shape must be replaced, not written through.
func TestIntoKernelsReuseDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	dirty := func(r, c int) *Tensor { return Full(math.NaN(), r, c) }
	sameBits := func(got, want *Tensor) bool { return firstBitDiff(got, want) < 0 }
	for _, s := range equivShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		at, bt := Transpose(a), Transpose(b)
		ref := MatMulRef(a, b)
		for name, into := range map[string]func(dst *Tensor) *Tensor{
			"MatMulInto":       func(dst *Tensor) *Tensor { return MatMulInto(dst, a, b) },
			"MatMulTransAInto": func(dst *Tensor) *Tensor { return MatMulTransAInto(dst, at, b) },
			"MatMulTransBInto": func(dst *Tensor) *Tensor { return MatMulTransBInto(dst, a, bt) },
		} {
			dst := dirty(s.m, s.n)
			if got := into(dst); got != dst || !sameBits(got, ref) {
				t.Errorf("%s at %dx%dx%d: reused %v, bit-identical %v", name, s.m, s.k, s.n, got == dst, sameBits(got, ref))
			}
			if got := into(dirty(s.n+1, s.m)); !sameBits(got, ref) {
				t.Errorf("%s at %dx%dx%d: wrongly shaped dst leaked into the result", name, s.m, s.k, s.n)
			}
		}
		dst := dirty(1, s.k)
		if got := SumRowsInto(dst, a); got != dst || !sameBits(got, SumRows(a)) {
			t.Errorf("SumRowsInto at %dx%d: reused %v, bit-identical %v", s.m, s.k, got == dst, sameBits(got, SumRows(a)))
		}
	}
}

// With a reused destination the …Into kernels allocate nothing: the small
// tier uses no scratch, and the packed tier hands its pooled buffers back
// through the pointer it got them by, so no Put boxes a new slice header.
// 64³ is packed but below the parallel threshold, so it runs serially.
// The fused bias add, ReLU and gate and the column sum of the product's
// shape hold to the same rule.
func TestIntoKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	rng := rand.New(rand.NewSource(49))
	for _, s := range []struct{ m, k, n int }{{64, 3, 8}, {64, 64, 64}} {
		a, b := randMat(rng, s.m, s.k), randMat(rng, s.k, s.n)
		at, bt := Transpose(a), Transpose(b)
		row, sums := randMat(rng, 1, s.n), New(1, s.n)
		dst, gate := New(s.m, s.n), randMat(rng, s.m, s.n)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"MatMulInto", func() { MatMulInto(dst, a, b) }},
			{"MatMulTransAInto", func() { MatMulTransAInto(dst, at, b) }},
			{"MatMulTransBInto", func() { MatMulTransBInto(dst, a, bt) }},
			{"MatMulAddRowInto", func() { MatMulAddRowInto(dst, a, b, row) }},
			{"MatMulAddRowReLUInto", func() { MatMulAddRowReLUInto(dst, a, b, row) }},
			{"MatMulTransBGateInto", func() { MatMulTransBGateInto(dst, a, bt, gate) }},
			{"SumRowsInto", func() { SumRowsInto(sums, dst) }},
		} {
			c.run()
			if got := testing.AllocsPerRun(50, c.run); got != 0 {
				t.Errorf("%s at %dx%dx%d makes %v allocations with a reused dst, want 0", c.name, s.m, s.k, s.n, got)
			}
		}
	}
}

func TestBatMulSlicesMatchMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, s := range []struct{ bt, m, k, n int }{
		{1, 1, 1, 1},
		{2, 5, 7, 3},
		{3, 8, 33, 4},
		{4, 17, 31, 13},
		{2, 64, 64, 64},
		{5, 33, 65, 29},
	} {
		a := New(s.bt, s.m, s.k)
		b := New(s.bt, s.k, s.n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		got := BatMul(a, b)
		for i := 0; i < s.bt; i++ {
			av := FromSlice(a.Data[i*s.m*s.k:(i+1)*s.m*s.k], s.m, s.k)
			bv := FromSlice(b.Data[i*s.k*s.n:(i+1)*s.k*s.n], s.k, s.n)
			want := MatMulRef(av, bv)
			slice := FromSlice(got.Data[i*s.m*s.n:(i+1)*s.m*s.n], s.m, s.n)
			if !Equal(slice, want, 0) {
				t.Errorf("BatMul slice %d != MatMul at %+v", i, s)
			}
		}
	}
}

func TestBatMulRejectsDegenerateShapes(t *testing.T) {
	for _, s := range []struct{ a, b []int }{
		{[]int{0, 2, 3}, []int{0, 3, 2}}, // zero batch
		{[]int{2, 0, 3}, []int{2, 3, 2}}, // zero rows
		{[]int{2, 2, 0}, []int{2, 0, 2}}, // k = 0
		{[]int{2, 2, 3}, []int{2, 3, 0}}, // zero cols
	} {
		if _, err := BatMulChecked(New(s.a...), New(s.b...)); err == nil {
			t.Errorf("BatMulChecked(%v, %v): expected error", s.a, s.b)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("BatMulChecked(%v, %v): error is not a typed *tensor.Error", s.a, s.b)
		}
	}
	// Rank and conformability errors stay typed too.
	if _, err := BatMulChecked(New(2, 2), New(2, 2, 2)); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := BatMulChecked(New(2, 2, 3), New(3, 3, 2)); err == nil {
		t.Error("batch mismatch accepted")
	}
	if _, err := BatMulChecked(New(2, 2, 3), New(2, 4, 2)); err == nil {
		t.Error("inner mismatch accepted")
	}
}

// MatMul keeps the historical k=0 semantics (a well-formed empty
// contraction yields zeros) even though BatMul rejects it.
func TestMatMulKZeroYieldsZeros(t *testing.T) {
	out := MatMul(New(3, 0), New(0, 4))
	if out.Dim(0) != 3 || out.Dim(1) != 4 || out.AbsMax() != 0 {
		t.Fatalf("k=0 product: %v", out)
	}
}

// The f32 tier tracks the float64 reference within bounded relative error:
// each output element is a k-term float32 dot product, so the error is
// bounded by ~k·eps32 relative to the accumulated magnitude.
func TestFloat32TierBoundedULP(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, s := range equivShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		ref := MatMulRef(a, b)
		got := MatMul32(ToFloat32(a), ToFloat32(b))
		const eps32 = 1.1920929e-07
		// |Σ aᵢbᵢ| can cancel, so bound against the magnitude sum.
		mags := MatMulRef(Apply(a, math.Abs), Apply(b, math.Abs))
		for i := range ref.Data {
			bound := (float64(s.k)+2)*eps32*mags.Data[i] + 1e-30
			if d := math.Abs(float64(got.Data[i]) - ref.Data[i]); d > bound {
				t.Fatalf("f32 error %g exceeds bound %g at %dx%dx%d elem %d",
					d, bound, s.m, s.k, s.n, i)
			}
		}
	}
}

// f32Shapes is equivShapes plus the shapes on the 8-row and 8-column
// boundaries of the f32 AVX kernel's full tiles.
var f32Shapes = append(append([]struct{ m, k, n int }(nil), equivShapes...),
	struct{ m, k, n int }{8, 1, 8},
	struct{ m, k, n int }{16, 33, 24},
	struct{ m, k, n int }{17, 65, 23},
	struct{ m, k, n int }{24, 64, 15},
)

// matMul32RowByRow is the f32 reference: MatMul32 of each 1-row slice of a,
// which always takes the i-k-j loop (one row is below gemmMinRows).
func matMul32RowByRow(a, b *Tensor32) *Tensor32 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New32(m, n)
	for i := 0; i < m; i++ {
		row := &Tensor32{shape: []int{1, k}, Data: a.Data[i*k : (i+1)*k]}
		copy(out.Data[i*n:(i+1)*n], MatMul32(row, b).Data)
	}
	return out
}

// firstBitDiff32 returns the first index where got and want differ in their
// bits, or -1 when they are bit-identical.
func firstBitDiff32(got, want *Tensor32) int {
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

// Every f32 path (AVX-512, AVX, scalar, edge and reference loop) must
// agree with the row-by-row reference bit-exactly, same contract as the
// f64 tiers, on every kernel path. The wide strips' edge shapes run the
// packed tier directly, since the size rule would send them to the loop.
func TestFloat32PathsAgree(t *testing.T) {
	forEachKernelPath(t, testFloat32PathsAgree)
}

func testFloat32PathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, s := range f32Shapes {
		a32 := ToFloat32(randMat(rng, s.m, s.k))
		b32 := ToFloat32(randMat(rng, s.k, s.n))
		got := MatMul32(a32, b32)
		if i := firstBitDiff32(got, matMul32RowByRow(a32, b32)); i >= 0 {
			t.Errorf("f32 packed != f32 reference at %dx%dx%d elem %d", s.m, s.k, s.n, i)
		}
	}
	for _, s := range wideStripShapes() {
		a32 := ToFloat32(randMat(rng, s.m, s.k))
		b32 := ToFloat32(randMat(rng, s.k, s.n))
		if i := firstBitDiff32(tiled32(a32, b32), matMul32RowByRow(a32, b32)); i >= 0 {
			t.Errorf("f32 packed tier != f32 reference at %dx%dx%d elem %d", s.m, s.k, s.n, i)
		}
	}
}

// wideStripShapes sit at the edges of the AVX-512 strips and of the packs'
// row blocks: n of one to five 8-wide float64 strips and up to two
// 16-wide float32 strips, each remainder kind included (a base-width
// strip, a narrower rest, or both); m of one 8-row tile, one row past it,
// and two tiles and a row; k on both sides of packRows.
func wideStripShapes() []struct{ m, k, n int } {
	var shapes []struct{ m, k, n int }
	for _, m := range []int{8, 9, 17} {
		for _, k := range []int{1, 15, 16, 17} {
			for _, n := range []int{12, 16, 20, 24, 31, 33, 47} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return shapes
}

// tiled32 is MatMul32's packed tier at any shape, run serially.
func tiled32(a, b *Tensor32) *Tensor32 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New32(m, n)
	bp := make([]float32, k*n)
	packB32(b, bp)
	gemmPacked32(a.Data, k, n, bp, out.Data, 0, m)
	return out
}

// tiledTransB is MatMulTransB's packed tier at any shape, run serially:
// a·bᵀ for b of shape n×k.
func tiledTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	bp := make([]float64, k*n)
	packBTrans(b, bp)
	gemmPacked(a.Data, k, n, bp, out.Data, 0, m)
	return out
}

func TestMatMul32ShapeErrors(t *testing.T) {
	if _, err := MatMul32Checked(New32(2, 3), New32(4, 2)); err == nil {
		t.Fatal("inner mismatch accepted")
	}
	if _, err := MatMul32Checked(New32(2), New32(2, 2)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestTensor32Conversions(t *testing.T) {
	src := FromSlice([]float64{1.5, -2.25, 0, 3e30}, 2, 2)
	t32 := ToFloat32(src)
	back := t32.ToFloat64()
	for i, v := range src.Data {
		if back.Data[i] != float64(float32(v)) {
			t.Fatalf("round-trip elem %d: %g", i, back.Data[i])
		}
	}
	if t32.Rank() != 2 || t32.Dim(1) != 2 || t32.Size() != 4 {
		t.Fatal("Tensor32 accessors")
	}
	if got := t32.ArgMaxRow(1); got != 1 {
		t.Fatalf("ArgMaxRow: %d", got)
	}
}

// refTransA is the loop MatMulTransA ran below the packed threshold before
// the small tier: p-outer, a zero element of a skips its term, and each
// output element accumulates in memory from +0 over ascending p.
func refTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := range orow {
				orow[j] += float64(av * brow[j])
			}
		}
	}
	return out
}

// refTransB is the loop MatMulTransB ran below the packed threshold before
// the small tier: one dot product per output element, no zero skip.
func refTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p := range arow {
				s += float64(arow[p] * brow[p])
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// refSumRows is SumRowsInto's scalar loop: each column sums in memory from
// +0 over ascending rows.
func refSumRows(t *Tensor) *Tensor {
	m, n := t.Dim(0), t.Dim(1)
	out := New(1, n)
	for i := 0; i < m; i++ {
		for j, v := range t.Data[i*n : (i+1)*n] {
			out.Data[j] += v
		}
	}
	return out
}

// refReLU is ReLU by its definition, applied to a copy of t: each element
// that is > 0 stays, and every other one (NaN, ±0 and negatives) is +0.
func refReLU(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		if !(v > 0) {
			out.Data[i] = 0
		}
	}
	return out
}

// refGate is ReLU's backward gate by its definition, applied to a copy of
// t: each element stays where gate's element at the same index is > 0 and
// is +0 elsewhere.
func refGate(t, gate *Tensor) *Tensor {
	out := t.Clone()
	for i, g := range gate.Data {
		if !(g > 0) {
			out.Data[i] = 0
		}
	}
	return out
}

// firstBitDiff returns the first index where got and want differ in their
// bits (or shape), or -1 when they are bit-identical.
func firstBitDiff(got, want *Tensor) int {
	if !got.SameShape(want) {
		return 0
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			return i
		}
	}
	return -1
}

// Below the packed threshold every entry point gives the reference loops'
// bits for any input: NaN, ±Inf and ±0 in either operand. The shapes take
// the small tier in every orientation, plus one-row and wide products
// outside its rule. In "A and B" a zero of A meets an Inf in the matching
// row of B, the product the reference's zero skip leaves out (0·Inf would
// be NaN); a·b and aᵀ·b must keep the skip there, while a·bᵀ, which never
// skipped, must keep the NaN. In "NaN after Inf−Inf" each output of A's
// last row sums +Inf, −Inf and then NaN, so its NaN payload depends on
// which operand each add keeps; the first four shapes give that row to
// exactly one tile path of the Go loops each (2×4, 2×1, 1×4, 1×1), so
// every path's checksum must send its product back to the reference. The
// cases run with the assembly kernels off and, on an AVX host, on. The
// AVX kernel's tiles are four rows by four columns: the first four shapes
// put that row in a short block of two or three rows, against a full or a
// masked strip, and 16×6×24, 64×8×2 and 8×64×2 in a full block.
//
// The fused bias add, MatMulAddRowInto, must give MatMulRef's bits
// followed by AddRowVectorInPlace's, with the specials in the bias row
// too. A NaN the add makes is the add's own: a NaN bias on a finite
// product keeps the bias's payload, and a +Inf product meeting a −Inf
// bias is the add's default NaN, neither of which may send the product to
// the reference loop or change its bits. SumRowsInto must give its scalar
// loop's bits on A, on Aᵀ (whose first column is A's −0 row in "a −0
// row") and on B.
//
// The fused ReLU, MatMulAddRowReLUInto, must give refReLU of that sum, and
// the gated a·bᵀ, MatMulTransBGateInto, refGate of refTransB's product by
// a gate that is the sum with every other element replaced by the
// specials in turn, subnormals included, so each value meets the gate in
// every shape. "Specials as pre-activations" gives row 0 of the sum the
// specials themselves (a zero row of A plus a bias of specials), and
// "products overflowing to both infinities" sends every tier's row 0 to
// the reference loop through finite operands. m runs over 1–9, so each
// short AVX block of one, two and three rows is hit, next to n%4 ≠ 0.
func TestSubThresholdBitExactOnNonFinite(t *testing.T) {
	forEachKernelPath(t, testSubThresholdBitExactOnNonFinite)
}

func testSubThresholdBitExactOnNonFinite(t *testing.T) {
	specials := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -0x1p-1040}
	rng := rand.New(rand.NewSource(48))
	poison := func(x *Tensor) {
		for i := range x.Data {
			if rng.Intn(3) == 0 {
				x.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for _, s := range []struct{ m, k, n int }{
		{2, 4, 4}, {2, 4, 3}, {3, 4, 4}, {3, 4, 3},
		{3, 5, 6}, {5, 4, 9}, {1, 3, 8}, {16, 6, 24}, {64, 8, 2}, {8, 64, 2}, {4, 40, 40},
		{6, 3, 5}, {7, 8, 2}, {9, 3, 7},
	} {
		for _, c := range []struct {
			name string
			prep func(a, b, row *Tensor)
		}{
			{"A", func(a, b, row *Tensor) { poison(a) }},
			{"B", func(a, b, row *Tensor) { poison(b) }},
			{"A and B", func(a, b, row *Tensor) {
				poison(a)
				poison(b)
				a.Data[0], b.Data[0] = 0, math.Inf(1)
			}},
			{"the bias", func(a, b, row *Tensor) { poison(row) }},
			{"A, B and the bias", func(a, b, row *Tensor) {
				poison(a)
				poison(b)
				poison(row)
			}},
			{"a NaN bias on a finite product", func(a, b, row *Tensor) { row.Data[s.n-1] = -math.NaN() }},
			{"a +Inf product meeting a −Inf bias", func(a, b, row *Tensor) {
				// Every output of row 0 sums +Inf·1 and finite terms.
				a.Data[0] = math.Inf(1)
				for j := 0; j < s.n; j++ {
					b.Data[j], row.Data[j] = 1, math.Inf(-1)
				}
			}},
			{"a −0 row", func(a, b, row *Tensor) {
				// Every product in row 0 is ±0, and its sums must come out
				// +0 as the reference's do.
				for p := 0; p < s.k; p++ {
					a.Data[p] = math.Copysign(0, -1)
				}
			}},
			{"NaN after Inf−Inf", func(a, b, row *Tensor) {
				copy(a.Data[(s.m-1)*s.k:], []float64{math.Inf(1), math.Inf(-1), math.NaN()})
				for i := range b.Data {
					b.Data[i] = 1
				}
			}},
			{"specials as pre-activations", func(a, b, row *Tensor) {
				for p := 0; p < s.k; p++ {
					a.Data[p] = 0
				}
				for j := range row.Data {
					row.Data[j] = specials[j%len(specials)]
				}
			}},
			{"products overflowing to both infinities", func(a, b, row *Tensor) {
				// Row 0's first two products are +Inf and −Inf in every
				// column, from finite operands; with k = 1 only +Inf.
				a.Data[0] = 1e300
				if s.k > 1 {
					a.Data[1] = 1e300
				}
				for j := 0; j < s.n; j++ {
					b.Data[j] = 1e300
					if s.k > 1 {
						b.Data[s.n+j] = -1e300
					}
				}
			}},
		} {
			a, b, row := randMat(rng, s.m, s.k), randMat(rng, s.k, s.n), randMat(rng, 1, s.n)
			c.prep(a, b, row)
			at, bt := Transpose(a), Transpose(b)
			ref, refA, refB := MatMulRef(a, b), refTransA(at, b), refTransB(a, bt)
			if i := firstBitDiff(refA, ref); i >= 0 {
				t.Fatalf("%s %dx%dx%d: the TransA reference loop differs from MatMulRef at %d", c.name, s.m, s.k, s.n, i)
			}
			refRow := ref.Clone()
			AddRowVectorInPlace(refRow, row)
			gate := refRow.Clone()
			for i := 0; i < len(gate.Data); i += 2 {
				gate.Data[i] = specials[i/2%len(specials)]
			}
			dirty := func(r, c int) *Tensor { return Full(math.NaN(), r, c) }
			ab, bb := New(1, s.m, s.k), New(1, s.k, s.n)
			copy(ab.Data, a.Data)
			copy(bb.Data, b.Data)
			for _, r := range []struct {
				name      string
				got, want *Tensor
			}{
				{"MatMulInto", MatMulInto(dirty(s.m, s.n), a, b), ref},
				{"MatMulTransAInto", MatMulTransAInto(dirty(s.m, s.n), at, b), refA},
				{"MatMulTransBInto", MatMulTransBInto(dirty(s.m, s.n), a, bt), refB},
				{"BatMul", FromSlice(BatMul(ab, bb).Data, s.m, s.n), ref},
				{"MatMulAddRowInto", MatMulAddRowInto(dirty(s.m, s.n), a, b, row), refRow},
				{"MatMulAddRowReLUInto", MatMulAddRowReLUInto(dirty(s.m, s.n), a, b, row), refReLU(refRow)},
				{"MatMulTransBGateInto", MatMulTransBGateInto(dirty(s.m, s.n), a, bt, gate), refGate(refB, gate)},
				{"SumRowsInto of A", SumRowsInto(dirty(1, s.k), a), refSumRows(a)},
				{"SumRowsInto of Aᵀ", SumRowsInto(dirty(1, s.m), at), refSumRows(at)},
				{"SumRowsInto of B", SumRowsInto(dirty(1, s.n), b), refSumRows(b)},
			} {
				if i := firstBitDiff(r.got, r.want); i >= 0 {
					t.Errorf("%s with specials in %s at %dx%dx%d: element %d is %v (%#x), want %v (%#x)",
						r.name, c.name, s.m, s.k, s.n, i, r.got.Data[i], math.Float64bits(r.got.Data[i]),
						r.want.Data[i], math.Float64bits(r.want.Data[i]))
				}
			}
		}
	}
}

// Inf/NaN inputs are inside the bit-exactness contract only below the
// packed threshold (TestSubThresholdBitExactOnNonFinite); above it the
// tiled kernel multiplies through a zero the reference skips, so 0·Inf can
// make the tiers differ. Every tier must still be deterministic there: the
// same call twice gives the same bits.
func TestNonFiniteDeterministicPerTier(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randMat(rng, 16, 32)
	b := randMat(rng, 32, 16)
	a.Data[5] = math.Inf(1)
	b.Data[7] = math.NaN()
	x := MatMulTiled(a, b)
	y := MatMulTiled(a, b)
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			t.Fatalf("tiled kernel nondeterministic at %d", i)
		}
	}
}
