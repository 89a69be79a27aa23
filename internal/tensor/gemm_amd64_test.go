//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelPath is one setting of the assembly switches: the YMM kernels
// (hasAVX) and the ZMM kernels with the packed tiers' wide strips
// (hasAVX512).
type kernelPath struct {
	name        string
	avx, avx512 bool
}

// kernelPaths lists the settings this CPU can run, pure Go first. "AVX"
// runs the YMM kernels with AVX-512 off, and "AVX-512" runs where the CPU
// and OS have it.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{"pure Go", false, false}}
	if detectAVX() {
		paths = append(paths, kernelPath{"AVX", true, false})
		if detectAVX512() {
			paths = append(paths, kernelPath{"AVX-512", true, true})
		}
	}
	return paths
}

func (p kernelPath) use() { hasAVX, hasAVX512 = p.avx, p.avx512 }

// forEachKernelPath runs f once per kernel path this CPU can run, naming
// each run after its path, and logs the paths it could not run.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	defer func(avx, avx512 bool) { hasAVX, hasAVX512 = avx, avx512 }(hasAVX, hasAVX512)
	paths := kernelPaths()
	for _, p := range paths {
		p.use()
		t.Run(p.name, f)
	}
	switch len(paths) {
	case 1:
		t.Log("no AVX on this CPU: only the pure-Go kernels ran")
	case 2:
		t.Log("no AVX-512 on this CPU: the ZMM kernels did not run")
	}
}

// smallEdgeShapes puts every remainder of the AVX small kernel's four-row
// blocks and four-column strips (m%4 and n%4 of 0, 1, 2 and 3) next to
// single rows and columns, at a k of one and of several steps.
func smallEdgeShapes() []struct{ m, k, n int } {
	var shapes []struct{ m, k, n int }
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7} {
			for _, k := range []int{1, 9} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return shapes
}

// On an AVX host the pure-Go micro-kernels only run when the assembly is
// switched off, so this test does exactly that: every GEMM entry point,
// the packed tiers at the wide strips' edges, and the column sum that runs
// the small kernel, must give the same bits on every kernel path as in
// pure Go.
func TestPureGoKernelsMatchAVX(t *testing.T) {
	paths := kernelPaths()
	if len(paths) == 1 {
		t.Skip("no AVX on this CPU: every run already takes the pure-Go kernels")
	}
	if len(paths) == 2 {
		t.Log("no AVX-512 on this CPU: the ZMM kernels did not run")
	}
	defer func(avx, avx512 bool) { hasAVX, hasAVX512 = avx, avx512 }(hasAVX, hasAVX512)
	rng := rand.New(rand.NewSource(48))
	for _, s := range f32Shapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		a32, b32 := ToFloat32(a), ToFloat32(b)

		paths[0].use()
		go32, goTiled, goAuto := MatMul32(a32, b32), MatMulTiled(a, b), MatMul(a, b)
		for _, p := range paths[1:] {
			p.use()
			if i := firstBitDiff32(MatMul32(a32, b32), go32); i >= 0 {
				t.Errorf("MatMul32 pure Go != %s at %dx%dx%d elem %d", p.name, s.m, s.k, s.n, i)
			}
			if !Equal(MatMulTiled(a, b), goTiled, 0) {
				t.Errorf("MatMulTiled pure Go != %s at %dx%dx%d", p.name, s.m, s.k, s.n)
			}
			if !Equal(MatMul(a, b), goAuto, 0) {
				t.Errorf("MatMul pure Go != %s at %dx%dx%d", p.name, s.m, s.k, s.n)
			}
		}
	}
	// The packed tiers at every shape of wideStripShapes, which the
	// size rule would send to the small tier: a·b, a·bᵀ (packBTrans) and
	// float32, each held to its reference on every path.
	for _, s := range wideStripShapes() {
		a, b := randMat(rng, s.m, s.k), randMat(rng, s.k, s.n)
		bt, a32, b32 := Transpose(b), ToFloat32(a), ToFloat32(b)
		ref, ref32 := MatMulRef(a, b), matMul32RowByRow(a32, b32)
		for _, p := range paths {
			p.use()
			if i := firstBitDiff(MatMulTiled(a, b), ref); i >= 0 {
				t.Errorf("MatMulTiled on %s != MatMulRef at %dx%dx%d elem %d", p.name, s.m, s.k, s.n, i)
			}
			if i := firstBitDiff(tiledTransB(a, bt), ref); i >= 0 {
				t.Errorf("packed a·bᵀ on %s != MatMulRef at %dx%dx%d elem %d", p.name, s.m, s.k, s.n, i)
			}
			if i := firstBitDiff32(tiled32(a32, b32), ref32); i >= 0 {
				t.Errorf("packed MatMul32 on %s != its row-by-row reference at %dx%dx%d elem %d", p.name, s.m, s.k, s.n, i)
			}
		}
	}
	// The small tier's products, through the entry points that reach it,
	// into dsts full of NaN so an unwritten element shows. On each path the
	// fused bias add must equal MatMulInto then AddRowVectorInPlace, the
	// fused ReLU that sum's refReLU, the gated a·bᵀ refGate of
	// MatMulTransBInto by a gate holding NaN, ±Inf, ±0 and a subnormal
	// among normal values of both signs, and the column sum its scalar
	// loop, which with the check above holds them to the same bits with
	// and without the AVX kernel.
	for _, s := range append(append([]struct{ m, k, n int }(nil), equivShapes...), smallEdgeShapes()...) {
		a, b := randMat(rng, s.m, s.k), randMat(rng, s.k, s.n)
		at, bt := Transpose(a), Transpose(b)
		row, c, gate := randMat(rng, 1, s.n), randMat(rng, s.m, s.n), randMat(rng, s.m, s.n)
		for i, v := range []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), 0, math.Inf(-1), 0x1p-1060} {
			if j := 3 * i; j < len(gate.Data) {
				gate.Data[j] = v
			}
		}
		ab, bb := New(2, s.m, s.k), New(2, s.k, s.n)
		for _, x := range []*Tensor{ab, bb} {
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
		}
		products := []struct {
			name string
			run  func() *Tensor
		}{
			{"MatMulInto", func() *Tensor { return MatMulInto(Full(math.NaN(), s.m, s.n), a, b) }},
			{"MatMulTransAInto", func() *Tensor { return MatMulTransAInto(Full(math.NaN(), s.m, s.n), at, b) }},
			{"MatMulTransBInto", func() *Tensor { return MatMulTransBInto(Full(math.NaN(), s.m, s.n), a, bt) }},
			{"BatMul", func() *Tensor { return BatMul(ab, bb) }},
			{"MatMulAddRowReLUInto", func() *Tensor { return MatMulAddRowReLUInto(Full(math.NaN(), s.m, s.n), a, b, row) }},
			{"MatMulTransBGateInto", func() *Tensor { return MatMulTransBGateInto(Full(math.NaN(), s.m, s.n), a, bt, gate) }},
		}
		for _, pr := range products {
			paths[0].use()
			want := pr.run()
			for _, p := range paths[1:] {
				p.use()
				if i := firstBitDiff(pr.run(), want); i >= 0 {
					t.Errorf("%s pure Go != %s at %dx%dx%d elem %d", pr.name, p.name, s.m, s.k, s.n, i)
				}
			}
		}
		for _, p := range paths {
			p.use()
			unfused := MatMulInto(nil, a, b)
			AddRowVectorInPlace(unfused, row)
			if i := firstBitDiff(MatMulAddRowInto(Full(math.NaN(), s.m, s.n), a, b, row), unfused); i >= 0 {
				t.Errorf("MatMulAddRowInto != MatMulInto + AddRowVectorInPlace at %dx%dx%d on %s, elem %d", s.m, s.k, s.n, p.name, i)
			}
			if i := firstBitDiff(MatMulAddRowReLUInto(Full(math.NaN(), s.m, s.n), a, b, row), refReLU(unfused)); i >= 0 {
				t.Errorf("MatMulAddRowReLUInto != refReLU of the bias add at %dx%dx%d on %s, elem %d", s.m, s.k, s.n, p.name, i)
			}
			gated := refGate(MatMulTransBInto(nil, a, bt), gate)
			if i := firstBitDiff(MatMulTransBGateInto(Full(math.NaN(), s.m, s.n), a, bt, gate), gated); i >= 0 {
				t.Errorf("MatMulTransBGateInto != refGate of MatMulTransBInto at %dx%dx%d on %s, elem %d", s.m, s.k, s.n, p.name, i)
			}
			if i := firstBitDiff(SumRowsInto(Full(math.NaN(), 1, s.n), c), refSumRows(c)); i >= 0 {
				t.Errorf("SumRowsInto != its scalar loop at %dx%d on %s, elem %d", s.m, s.n, p.name, i)
			}
		}
	}
	// The column sum takes the kernel at any size, so hold it to the
	// scalar loop past 2¹⁶ elements too: tall and narrow, and wide.
	paths[1].use()
	for _, s := range []struct{ m, n int }{{16387, 5}, {301, 259}} {
		c := randMat(rng, s.m, s.n)
		if i := firstBitDiff(SumRowsInto(Full(math.NaN(), 1, s.n), c), refSumRows(c)); i >= 0 {
			t.Errorf("SumRowsInto != its scalar loop at %dx%d, elem %d", s.m, s.n, i)
		}
	}
}

// packB and packB32 copy B packRows rows at a time across all the strips.
// At either strip width their layout must be the one a copy of each strip
// in turn gives, with k on both sides of the row block and n leaving every
// kind of remainder; packing runs no kernel, so the wide layout is checked
// on any CPU. The widths themselves follow stripWidth's rule: on AVX-512,
// full wide strips, then one base-width strip for a remainder of at least
// the base width, then the rest.
func TestBlockedPackMatchesPerStrip(t *testing.T) {
	defer func(saved bool) { hasAVX512 = saved }(hasAVX512)
	for _, c := range []struct {
		n, nr  int
		avx512 bool
		want   []int
	}{
		{47, gemmNR, false, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3}},
		{47, gemmNR, true, []int{8, 8, 8, 8, 8, 4, 3}},
		{12, gemmNR, true, []int{8, 4}},
		{20, gemmNR, true, []int{8, 8, 4}},
		{47, gemmNR32, false, []int{8, 8, 8, 8, 8, 7}},
		{47, gemmNR32, true, []int{16, 16, 8, 7}},
		{31, gemmNR32, true, []int{16, 8, 7}},
		{7, gemmNR32, true, []int{7}},
	} {
		hasAVX512 = c.avx512
		var got []int
		for js, w := 0, 0; js < c.n; js += w {
			w = stripWidth(js, c.n, c.nr)
			got = append(got, w)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("strips of %d columns at base width %d, AVX-512 %v: %v, want %v", c.n, c.nr, c.avx512, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(50))
	for _, avx512 := range []bool{false, true} {
		hasAVX512 = avx512
		for _, k := range []int{1, 15, 16, 17, 40} {
			for _, n := range []int{1, 3, 4, 7, 8, 12, 16, 20, 24, 31, 33, 47} {
				b := randMat(rng, k, n)
				b32 := ToFloat32(b)
				got, got32 := make([]float64, k*n), make([]float32, k*n)
				packB(b, got)
				packB32(b32, got32)
				if !slices.Equal(got, perStripPack(b.Data, k, n, gemmNR)) {
					t.Errorf("packB of %dx%d, AVX-512 %v, differs from a per-strip copy", k, n, avx512)
				}
				if !slices.Equal(got32, perStripPack(b32.Data, k, n, gemmNR32)) {
					t.Errorf("packB32 of %dx%d, AVX-512 %v, differs from a per-strip copy", k, n, avx512)
				}
			}
		}
	}
}

// perStripPack is the pack as one pass per strip: all k rows of a strip,
// then the next strip, each strip stripWidth wide.
func perStripPack[T float32 | float64](src []T, k, n, nr int) []T {
	dst := make([]T, k*n)
	for js, w := 0, 0; js < n; js += w {
		w = stripWidth(js, n, nr)
		for p := 0; p < k; p++ {
			copy(dst[js*k+p*w:js*k+p*w+w], src[p*n+js:p*n+js+w])
		}
	}
	return dst
}

// The AVX-512 rule on synthetic CPUID and XCR0 words: AVX512F with the OS
// saving every state it needs gives on; no leaf 7, no AVX512F, or an XCR0
// missing any of bits 1, 2, 5, 6 and 7 gives off. The last covers a CPU
// with AVX512F under an OS that saves only the XMM and YMM state.
func TestAVX512Rule(t *testing.T) {
	const f = 1 << 16 // leaf 7 EBX: AVX512F
	const full = 0xe7 // XCR0: x87, XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	if !avx512Usable(7, f, full) || !avx512Usable(0x1b, ^uint32(0), ^uint32(0)) {
		t.Error("AVX512F with every ZMM state bit reads off")
	}
	off := []struct {
		name              string
		maxID, ebx7, xcr0 uint32
	}{
		{"no leaf 7", 6, f, full},
		{"no AVX512F", 7, ^uint32(f), full},
		{"AVX512F without the OS's ZMM state", 7, f, 0x07},
	}
	for _, bit := range []uint{1, 2, 5, 6, 7} {
		off = append(off, struct {
			name              string
			maxID, ebx7, xcr0 uint32
		}{fmt.Sprintf("XCR0 without bit %d", bit), 7, f, full &^ (1 << bit)})
	}
	for _, c := range off {
		if avx512Usable(c.maxID, c.ebx7, c.xcr0) {
			t.Errorf("%s (leaf %d, EBX %#x, XCR0 %#x) reads on", c.name, c.maxID, c.ebx7, c.xcr0)
		}
	}
}
