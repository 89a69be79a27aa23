package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based tests: each pins an algebraic identity over randomized
// shapes, values, and seeds rather than hand-picked fixtures. The seeds are
// fixed so failures replay; the shape ranges are small enough to keep the
// whole file in milliseconds but large enough to hit degenerate dims
// (1-wide matrices, empty-ish vectors, padding-only patches).

// (A·B)·C == A·(B·C) within floating-point tolerance, across random
// conforming shapes. The two orderings accumulate in different sequences,
// so exact equality is not expected — but the drift must stay at rounding
// scale, which also guards against indexing bugs that produce plausible
// but wrong values.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		m, k, l, p := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, l)
		c := RandNormal(rng, 0, 1, l, p)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		if !Equal(left, right, 1e-9) {
			t.Fatalf("trial %d: (AB)C != A(BC) for dims %dx%d·%dx%d·%dx%d", trial, m, k, k, l, l, p)
		}
	}
}

// Transpose is an involution (exactly — it only moves elements), and the
// fused transposed multiplies must agree with the explicit transpose
// composition bit-for-bit: they visit the same products in the same order.
func TestTransposeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 40; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		if !Equal(Transpose(Transpose(a)), a, 0) {
			t.Fatalf("trial %d: transpose is not an involution on %dx%d", trial, m, k)
		}
		if !Equal(MatMulTransA(Transpose(a), b), MatMul(a, b), 1e-12) {
			t.Fatalf("trial %d: MatMulTransA(Aᵀ,B) != A·B", trial)
		}
		if !Equal(MatMulTransB(a, Transpose(b)), MatMul(a, b), 1e-12) {
			t.Fatalf("trial %d: MatMulTransB(A,Bᵀ) != A·B", trial)
		}
	}
}

// The branch-light finite scans (the v-v != 0 trick plus four-wide
// unrolling) must agree with a naive math.IsNaN/IsInf scan on vectors with
// NaNs and ±Infs sprinkled at random positions — including positions inside
// and outside the unrolled prefix, and fully clean vectors.
func TestFiniteScansMatchNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, rng.Intn(40))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		for k := rng.Intn(4); k > 0 && len(xs) > 0; k-- {
			xs[rng.Intn(len(xs))] = bad[rng.Intn(len(bad))]
		}

		nanCt, infCt := 0, 0
		var sumSq float64
		for _, v := range xs {
			switch {
			case math.IsNaN(v):
				nanCt++
			case math.IsInf(v, 0):
				infCt++
			default:
				sumSq += v * v
			}
		}
		wantFinite := nanCt == 0 && infCt == 0

		if got := AllFinite(xs); got != wantFinite {
			t.Fatalf("trial %d: AllFinite=%v, naive scan says %v (%v)", trial, got, wantFinite, xs)
		}
		norm, finite := Norm2Finite(xs)
		if finite != wantFinite {
			t.Fatalf("trial %d: Norm2Finite finite=%v, want %v", trial, finite, wantFinite)
		}
		if want := math.Sqrt(sumSq); math.Abs(norm-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: Norm2Finite norm=%g, naive %g", trial, norm, want)
		}
		s := FiniteStats(xs)
		if s.Count != len(xs) || s.NaNs != nanCt || s.Infs != infCt || s.Finite() != wantFinite {
			t.Fatalf("trial %d: FiniteStats %+v, naive NaNs=%d Infs=%d", trial, s, nanCt, infCt)
		}
	}
}

// Every Checked constructor and operation must reject invalid shapes by
// returning a *tensor.Error — never by panicking and never by silently
// succeeding. The shapes are randomized so the mismatches land on many
// different dimension pairs.
func TestCheckedOpsRejectBadShapesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	expectErr := func(trial int, op string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("trial %d: %s accepted invalid shapes", trial, op)
		}
		if _, ok := err.(*Error); !ok {
			t.Fatalf("trial %d: %s returned %T, want *tensor.Error", trial, op, err)
		}
	}
	for trial := 0; trial < 60; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k+1+rng.Intn(3), n)

		_, err := MatMulChecked(a, b)
		expectErr(trial, "MatMulChecked", err)
		_, err = MatMulTransAChecked(a, RandNormal(rng, 0, 1, m+1, n))
		expectErr(trial, "MatMulTransAChecked", err)
		_, err = MatMulTransBChecked(a, RandNormal(rng, 0, 1, n, k+1))
		expectErr(trial, "MatMulTransBChecked", err)

		_, err = FromSliceChecked(make([]float64, m*k+1), m, k)
		expectErr(trial, "FromSliceChecked", err)
		_, err = a.ReshapeChecked(m*k+1+rng.Intn(5), 1)
		expectErr(trial, "ReshapeChecked", err)

		g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 1, Pad: 0}
		expectErr(trial, "CheckInput", g.CheckInput(RandNormal(rng, 0, 1, 1, 3, 4, 4)))
	}

	// The panicking API must carry the same typed error, so a caller that
	// recovers can tell an invariant violation from any other panic.
	for _, c := range []struct {
		op string
		f  func()
	}{
		{"New", func() { New(2, -1) }},
		{"MatMul", func() { MatMul(RandNormal(rng, 0, 1, 2, 3), RandNormal(rng, 0, 1, 4, 2)) }},
	} {
		r := func() (r any) {
			defer func() { r = recover() }()
			c.f()
			return nil
		}()
		err, _ := r.(error)
		expectErr(0, c.op+" panic", err)
	}
}
