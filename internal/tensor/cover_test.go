package tensor

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestScaleApplyAndFriends(t *testing.T) {
	x := FromSlice([]float64{1, -2, 3}, 3)
	y := Scale(2, x)
	if y.Data[1] != -4 {
		t.Fatalf("Scale: %v", y.Data)
	}
	z := Apply(x, func(v float64) float64 { return v * v })
	if z.Data[2] != 9 {
		t.Fatalf("Apply: %v", z.Data)
	}
	x.ApplyInPlace(func(v float64) float64 { return v + 1 })
	if x.Data[0] != 2 {
		t.Fatalf("ApplyInPlace: %v", x.Data)
	}
}

func TestCopyFromAndZero(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := New(2, 2)
	b.CopyFrom(a)
	if !Equal(a, b, 0) {
		t.Fatal("CopyFrom failed")
	}
	b.Zero()
	if b.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	b.CopyFrom(New(4))
}

func TestStringRendering(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); !strings.Contains(s, "Tensor[2]") || !strings.Contains(s, "1") {
		t.Fatalf("small String: %s", s)
	}
	big := New(100)
	if s := big.String(); !strings.Contains(s, "...") {
		t.Fatalf("big String should summarise: %s", s)
	}
}

func TestHeInitShapeAndShapeAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := HeInitShape(rng, 27, 4, 27)
	if sh := k.Shape(); sh[0] != 4 || sh[1] != 27 {
		t.Fatalf("shape %v", sh)
	}
	if k.AbsMax() == 0 {
		t.Fatal("He init produced zeros")
	}
}

func TestMeanEmptyAndEqualShapes(t *testing.T) {
	e := New(0)
	if e.Mean() != 0 {
		t.Fatal("empty Mean should be 0")
	}
	if Equal(New(2), New(3), 1) {
		t.Fatal("different shapes cannot be Equal")
	}
	if New(2, 3).SameShape(New(2)) {
		t.Fatal("rank mismatch should not be SameShape")
	}
}

func TestInPlacePanicsOnShapeMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddInPlace":  func() { New(2).AddInPlace(New(3)) },
		"AxpyInPlace": func() { New(2).AxpyInPlace(1, New(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRowPanicsOnRank1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Row(0)
}

func TestCheckShapePanicsOnEmptyShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New()
}

// The parallel GEMM path must be bit-identical to the serial path.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Big enough to cross parallelFLOPThreshold (256^3 = 16.7M).
	a := RandNormal(rng, 0, 1, 256, 256)
	b := RandNormal(rng, 0, 1, 256, 256)
	par := MatMul(a, b)
	ser := New(256, 256)
	matMulRows(a, b, ser, 0, 256)
	if !Equal(par, ser, 0) {
		t.Fatal("parallel GEMM diverges from serial")
	}
}

// The determinism regression: the pooled kernel must stay bit-identical
// to the serial reference regardless of how many workers the pool can
// recruit. Run under -race in CI, this also shakes out data races in the
// persistent pool's chunk self-scheduling.
func TestMatMulDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandNormal(rng, 0, 1, 256, 256)
	b := RandNormal(rng, 0, 1, 256, 256)
	ser := New(256, 256)
	matMulRows(a, b, ser, 0, 256)
	a32, b32 := ToFloat32(a), ToFloat32(b)
	ser32 := matMul32RowByRow(a32, b32)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := MatMul(a, b); !Equal(got, ser, 0) {
			t.Fatalf("GOMAXPROCS=%d: MatMul diverges from serial reference", procs)
		}
		if i := firstBitDiff32(MatMul32(a32, b32), ser32); i >= 0 {
			t.Fatalf("GOMAXPROCS=%d: MatMul32 diverges from f32 reference at %d", procs, i)
		}
		ab := New(2, 256, 256)
		bb := New(2, 256, 256)
		copy(ab.Data[:256*256], a.Data)
		copy(ab.Data[256*256:], a.Data)
		copy(bb.Data[:256*256], b.Data)
		copy(bb.Data[256*256:], b.Data)
		bout := BatMul(ab, bb)
		for s := 0; s < 2; s++ {
			for i, v := range bout.Data[s*256*256 : (s+1)*256*256] {
				if v != ser.Data[i] {
					t.Fatalf("GOMAXPROCS=%d: BatMul slice %d diverges at %d", procs, s, i)
				}
			}
		}
	}
}

// parallelRows must not spawn chunks for row counts below the worker
// target — the heuristic fix: a tiny m above the FLOP threshold used to
// fan out anyway.
func TestParallelRowsSkipsSpawnForTinyM(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	calls := 0
	parallelRows(3, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 3 {
			t.Fatalf("expected one serial chunk, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("m < workers should run serially in one call, got %d", calls)
	}
	// Chunk count never exceeds the worker target.
	var chunks atomic.Int32
	parallelRows(1000, func(lo, hi int) { chunks.Add(1) })
	if c := chunks.Load(); c > 8 {
		t.Fatalf("chunks %d exceed GOMAXPROCS", c)
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	seen := make([]int32, 1000)
	parallelRows(1000, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d visited %d times", i, c)
		}
	}
	// Degenerate sizes.
	called := false
	parallelRows(1, func(lo, hi int) { called = lo == 0 && hi == 1 })
	if !called {
		t.Fatal("single-row case not handled")
	}
}
