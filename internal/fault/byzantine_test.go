package fault

import (
	"math"
	"testing"
)

// TestKindStringExhaustive iterates every declared kind and fails on any
// "unknown" rendering, so new kinds can't silently print as unknown in
// ledgers and tables.
func TestKindStringExhaustive(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindCrash; k < kindEnd; k++ {
		s := k.String()
		if s == "unknown" {
			t.Errorf("Kind(%d) renders as %q — add it to Kind.String()", int(k), s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("Kind(%d) and Kind(%d) both render as %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	if Kind(int(kindEnd)+7).String() != "unknown" {
		t.Errorf("out-of-range kind should render as unknown")
	}
}

func TestIsByzantineKind(t *testing.T) {
	for k := KindCrash; k < kindEnd; k++ {
		want := k == KindSignFlip || k == KindScaleAttack || k == KindDriftAttack || k == KindCollude
		if got := IsByzantineKind(k); got != want {
			t.Errorf("IsByzantineKind(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestByzantineConfigValidate(t *testing.T) {
	good := Byzantine(1, KindSignFlip, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Window{
		{Kind: KindSignFlip, Workers: []int{-1}},           // negative worker
		{Kind: KindSignFlip, Workers: []int{0}, Prob: 1.5}, // rate > 1
		{Kind: KindScaleAttack, Factor: -3},                // negative magnitude
	}
	for i, w := range bad {
		if err := (Config{Schedule: []Window{w}}).Validate(); err == nil {
			t.Errorf("bad window %d accepted", i)
		}
	}
	if len(good.Schedule) != 1 {
		t.Errorf("Byzantine config should hold one window, got %+v", good.Schedule)
	}
}

func TestByzantineWorkerMembership(t *testing.T) {
	inj := NewInjector(Byzantine(7, KindScaleAttack, 1, 5))
	for w := 0; w < 8; w++ {
		adversary := w == 1 || w == 5
		for r := 0; r < 16; r++ {
			if got := inj.ByzantineFires(w, r); got != adversary {
				t.Fatalf("ByzantineFires(%d, %d) = %v, want %v (rate-1 adversaries fire every round)", w, r, got, adversary)
			}
		}
	}
}

func TestCorruptGradientSemantics(t *testing.T) {
	base := []float64{1, -2, 0.5}

	t.Run("sign-flip", func(t *testing.T) {
		inj := NewInjector(Byzantine(3, KindSignFlip, 0))
		g := append([]float64(nil), base...)
		if !inj.CorruptGradient(g, 0, 0) {
			t.Fatalf("attack did not fire")
		}
		for j := range g {
			if g[j] != -100*base[j] {
				t.Fatalf("g[%d] = %g, want %g", j, g[j], -100*base[j])
			}
		}
	})

	t.Run("scale", func(t *testing.T) {
		cfg := Byzantine(3, KindScaleAttack, 0)
		cfg.Schedule[0].Factor = 10
		inj := NewInjector(cfg)
		g := append([]float64(nil), base...)
		inj.CorruptGradient(g, 0, 2)
		for j := range g {
			if g[j] != 10*base[j] {
				t.Fatalf("g[%d] = %g, want %g", j, g[j], 10*base[j])
			}
		}
	})

	t.Run("drift-constant-across-rounds", func(t *testing.T) {
		inj := NewInjector(Byzantine(3, KindDriftAttack, 0))
		a := append([]float64(nil), base...)
		b := append([]float64(nil), base...)
		inj.CorruptGradient(a, 0, 0)
		inj.CorruptGradient(b, 0, 9)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("drift bias changed between rounds at coord %d", j)
			}
			if math.Abs(a[j]-base[j]) != 1.5 {
				t.Fatalf("|bias| = %g, want 1.5", math.Abs(a[j]-base[j]))
			}
		}
	})

	t.Run("honest-untouched", func(t *testing.T) {
		inj := NewInjector(Byzantine(3, KindSignFlip, 4))
		g := append([]float64(nil), base...)
		if inj.CorruptGradient(g, 0, 0) {
			t.Fatalf("honest worker corrupted")
		}
		for j := range g {
			if g[j] != base[j] {
				t.Fatalf("honest gradient mutated")
			}
		}
	})

	t.Run("finite", func(t *testing.T) {
		for _, k := range []Kind{KindSignFlip, KindScaleAttack, KindDriftAttack, KindCollude} {
			inj := NewInjector(Byzantine(3, k, 0))
			g := append([]float64(nil), base...)
			inj.CorruptGradient(g, 0, 0)
			for j, v := range g {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v produced non-finite g[%d]=%v", k, j, v)
				}
			}
		}
	})
}

func TestColludeShuffleCoordinated(t *testing.T) {
	inj := NewInjector(Byzantine(11, KindCollude, 2, 6))
	rows, classes := 8, 3
	mk := func() []float64 {
		labels := make([]float64, rows*classes)
		for r := 0; r < rows; r++ {
			labels[r*classes+r%classes] = 1
		}
		return labels
	}
	if !inj.ColludesBatch(2, 0) || !inj.ColludesBatch(6, 0) {
		t.Fatalf("coalition members should collude at rate 1")
	}
	if inj.ColludesBatch(0, 0) {
		t.Fatalf("honest worker colluded")
	}
	// Every colluder derives the identical shift for a round; shifts vary
	// by round; rows stay one-hot.
	a, b := mk(), mk()
	inj.ColludeShuffleLabels(a, rows, classes, 4)
	inj.ColludeShuffleLabels(b, rows, classes, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coalition members derived different shuffles")
		}
	}
	orig := mk()
	same := true
	for i := range a {
		if a[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("shuffle was a no-op")
	}
	for r := 0; r < rows; r++ {
		var sum float64
		for c := 0; c < classes; c++ {
			sum += a[r*classes+c]
		}
		if sum != 1 {
			t.Fatalf("row %d no longer one-hot (sum %g)", r, sum)
		}
	}
}

func TestByzantineOrderIndependence(t *testing.T) {
	inj := NewInjector(Byzantine(99, KindSignFlip, 1, 3))
	type key struct{ w, r int }
	fwd := map[key]bool{}
	for w := 0; w < 4; w++ {
		for r := 0; r < 16; r++ {
			fwd[key{w, r}] = inj.ByzantineFires(w, r)
		}
	}
	inj2 := NewInjector(Byzantine(99, KindSignFlip, 1, 3))
	for r := 15; r >= 0; r-- {
		for w := 3; w >= 0; w-- {
			if inj2.ByzantineFires(w, r) != fwd[key{w, r}] {
				t.Fatalf("query order changed outcome at worker %d round %d", w, r)
			}
		}
	}
}
