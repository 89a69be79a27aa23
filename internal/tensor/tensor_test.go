package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.Rank() != 2 {
		t.Fatalf("got size=%d rank=%d", x.Size(), x.Rank())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(1, 2); got != 6 {
		t.Fatalf("At(1,2)=%g, want 6", got)
	}
	x.Set(9, 0, 1)
	if got := x.At(0, 1); got != 9 {
		t.Fatalf("Set/At mismatch: %g", got)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Fatalf("reshape value mismatch: %g", y.At(2, 1))
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
	// Reshape shares data.
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("reshape did not share data")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 7
	if x.Data[0] != 1 {
		t.Fatal("clone shares data")
	}
}

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d]=%g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, 4, 5)
	b := RandNormal(rng, 0, 1, 5, 3)
	ref := MatMul(a, b)
	viaTransB := MatMulTransB(a, Transpose(b))
	if !Equal(ref, viaTransB, 1e-12) {
		t.Fatal("MatMulTransB disagrees with MatMul")
	}
	viaTransA := MatMulTransA(Transpose(a), b)
	if !Equal(ref, viaTransA, 1e-12) {
		t.Fatal("MatMulTransA disagrees with MatMul")
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 || at.At(2, 1) != 6 {
		t.Fatalf("transpose wrong: %v", at)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 2, -3, 4}, 4)
	if x.Sum() != 2 {
		t.Fatalf("Sum=%g", x.Sum())
	}
	if x.Mean() != 0.5 {
		t.Fatalf("Mean=%g", x.Mean())
	}
	if x.Max() != 4 || x.Min() != -3 || x.AbsMax() != 4 {
		t.Fatalf("Max/Min/AbsMax = %g/%g/%g", x.Max(), x.Min(), x.AbsMax())
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float64{0.1, 0.9, 0.5, 0.3, 0.3, 0.2}, 2, 3)
	if x.ArgMaxRow(0) != 1 {
		t.Fatalf("row 0 argmax = %d", x.ArgMaxRow(0))
	}
	// Ties break low.
	if x.ArgMaxRow(1) != 0 {
		t.Fatalf("row 1 argmax = %d", x.ArgMaxRow(1))
	}
}

func TestSumRowsAndAddRowVector(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := SumRows(x)
	if s.Dim(0) != 1 || s.Data[0] != 5 || s.Data[2] != 9 {
		t.Fatalf("SumRows = %v", s.Data)
	}
	v := FromSlice([]float64{10, 20, 30}, 1, 3)
	AddRowVectorInPlace(x, v)
	if x.At(1, 2) != 36 || x.At(0, 0) != 11 {
		t.Fatalf("AddRowVectorInPlace = %v", x.Data)
	}
}

func TestInPlaceOps(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{10, 20}, 2)
	x.AddInPlace(y)
	if x.Data[1] != 22 {
		t.Fatalf("AddInPlace: %v", x.Data)
	}
	x.AxpyInPlace(0.5, y)
	if x.Data[0] != 16 {
		t.Fatalf("AxpyInPlace: %v", x.Data)
	}
	x.ScaleInPlace(2)
	if x.Data[0] != 32 {
		t.Fatalf("ScaleInPlace: %v", x.Data)
	}
	x.Fill(3)
	if x.Data[1] != 3 {
		t.Fatalf("Fill: %v", x.Data)
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := RandUniform(rng, -2, 2, 100, 10)
	if u.Max() > 2 || u.Min() < -2 {
		t.Fatalf("uniform out of range: [%g, %g]", u.Min(), u.Max())
	}
	x := XavierInit(rng, 64, 64)
	limit := math.Sqrt(6.0 / 128.0)
	if x.AbsMax() > limit {
		t.Fatalf("xavier out of range: %g > %g", x.AbsMax(), limit)
	}
	h := HeInit(rng, 1000, 100)
	std := math.Sqrt(2.0 / 1000.0)
	// Sample std should be near theoretical std.
	var ss float64
	for _, v := range h.Data {
		ss += v * v
	}
	sample := math.Sqrt(ss / float64(h.Size()))
	if math.Abs(sample-std)/std > 0.1 {
		t.Fatalf("He std %g far from %g", sample, std)
	}
}

// add returns a + b through AddInPlace.
func add(a, b *Tensor) *Tensor {
	out := a.Clone()
	out.AddInPlace(b)
	return out
}

// Property: AddInPlace is commutative, and AxpyInPlace(-1, b) undoes
// AddInPlace(b).
func TestAddPropertiesQuick(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			// Skip values whose sums would overflow or lose all precision.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		a := FromSlice(append([]float64(nil), vals...), len(vals))
		b := Scale(0.5, a)
		if !Equal(add(a, b), add(b, a), 0) {
			return false
		}
		// (a+b)-b ≈ a within float tolerance.
		back := add(a, b)
		back.AxpyInPlace(-1, b)
		return Equal(back, a, 1e-9*math.Max(1, a.AbsMax()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC.
func TestMatMulDistributiveQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		c := RandNormal(rng, 0, 1, k, n)
		left := MatMul(a, add(b, c))
		right := add(MatMul(a, b), MatMul(a, c))
		if !Equal(left, right, 1e-9) {
			t.Fatalf("distributivity failed at m=%d k=%d n=%d", m, k, n)
		}
	}
}

// Property: Transpose is an involution and (AB)ᵀ = BᵀAᵀ.
func TestTransposePropertiesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		if !Equal(Transpose(Transpose(a)), a, 0) {
			t.Fatal("transpose not involutive")
		}
		if !Equal(Transpose(MatMul(a, b)), MatMul(Transpose(b), Transpose(a)), 1e-9) {
			t.Fatal("(AB)ᵀ != BᵀAᵀ")
		}
	}
}

// Equal matches values the way the GEMM pins need: a value equals itself
// (same-signed infinities included), two NaNs are equal, a NaN never
// equals a number, and other pairs must lie within tol.
func TestEqualHandlesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		x, y, tol float64
		want      bool
	}{
		{nan, 5, 0, false},
		{5, nan, 1e300, false},
		{nan, inf, 0, false},
		{nan, nan, 0, true},
		{nan, -nan, 0, true},
		{inf, inf, 0, true},
		{-inf, -inf, 0, true},
		{inf, -inf, 1e300, false},
		{inf, 1e308, 1e300, false},
		{0, math.Copysign(0, -1), 0, true},
		{1, 1.5, 0.5, true},
		{1, 1.5, 0.25, false},
		{1e-3, 2e-3, 0, false},
	} {
		a, b := FromSlice([]float64{1, c.x}, 1, 2), FromSlice([]float64{1, c.y}, 1, 2)
		if got := Equal(a, b, c.tol); got != c.want {
			t.Errorf("Equal(%v, %v, tol %v) = %v, want %v", c.x, c.y, c.tol, got, c.want)
		}
	}
	if Equal(New(2, 3), New(3, 2), math.Inf(1)) {
		t.Error("Equal accepted tensors of different shapes")
	}
}
