package learned

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
)

// Satellite 1: constructors reject bad arguments with a typed *ArgError
// instead of panicking.
func TestBuildRMIArgErrors(t *testing.T) {
	cases := []struct {
		name   string
		keys   []uint64
		leaves int
		fn     string
	}{
		{"empty keys", nil, 8, "BuildRMI"},
		{"zero leaves", []uint64{1, 2, 3}, 0, "BuildRMI"},
		{"negative leaves", []uint64{1, 2, 3}, -4, "BuildRMI"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := BuildRMI(c.keys, c.leaves)
			if r != nil || err == nil {
				t.Fatalf("got (%v, %v), want (nil, *ArgError)", r, err)
			}
			var ae *ArgError
			if !errors.As(err, &ae) || ae.Fn != c.fn {
				t.Fatalf("error %v is not an *ArgError from %s", err, c.fn)
			}
		})
	}
}

func TestBuildLearnedBloomArgErrors(t *testing.T) {
	keys, negs := []uint64{10, 20, 30}, []uint64{15, 25}
	good := LearnedBloomConfig{Hidden: 4, Epochs: 1, LR: 0.01, TargetFPR: 0.05, BackupFPR: 0.05}
	with := func(edit func(*LearnedBloomConfig)) LearnedBloomConfig {
		c := good
		edit(&c)
		return c
	}
	cases := []struct {
		name       string
		keys, negs []uint64
		cfg        LearnedBloomConfig
	}{
		{"empty keys", nil, negs, good},
		{"empty negatives", keys, nil, good},
		{"zero target FPR", keys, negs, with(func(c *LearnedBloomConfig) { c.TargetFPR = 0 })},
		{"target FPR one", keys, negs, with(func(c *LearnedBloomConfig) { c.TargetFPR = 1 })},
		{"target FPR above one", keys, negs, with(func(c *LearnedBloomConfig) { c.TargetFPR = 1.5 })},
		{"NaN target FPR", keys, negs, with(func(c *LearnedBloomConfig) { c.TargetFPR = math.NaN() })},
		{"zero hidden", keys, negs, with(func(c *LearnedBloomConfig) { c.Hidden = 0 })},
		{"negative hidden", keys, negs, with(func(c *LearnedBloomConfig) { c.Hidden = -3 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lb, err := BuildLearnedBloom(rand.New(rand.NewSource(1)), c.keys, c.negs, c.cfg)
			if lb != nil || err == nil {
				t.Fatalf("got (%v, %v), want (nil, *ArgError)", lb, err)
			}
			var ae *ArgError
			if !errors.As(err, &ae) || ae.Fn != "BuildLearnedBloom" {
				t.Fatalf("error %v is not an *ArgError from BuildLearnedBloom", err)
			}
		})
	}
}

func TestNewDynamicRMIArgErrors(t *testing.T) {
	for _, c := range []struct {
		name   string
		keys   []uint64
		leaves int
	}{
		{"empty keys", nil, 8},
		{"zero leaves", []uint64{1, 2, 3}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := NewDynamicRMI(c.keys, c.leaves)
			if d != nil || err == nil {
				t.Fatalf("got (%v, %v), want (nil, *ArgError)", d, err)
			}
			var ae *ArgError
			if !errors.As(err, &ae) || ae.Fn != "NewDynamicRMI" {
				t.Fatalf("error %v is not an *ArgError from NewDynamicRMI", err)
			}
		})
	}
}

// Satellite 2: the rebuild threshold is inclusive — the insert that brings
// the delta buffer exactly to RebuildFraction*len(keys)+1 must itself
// trigger the merge, and duplicate inserts must not count toward it.
func TestDynamicRMIRebuildThresholdBoundary(t *testing.T) {
	sorted := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = uint64(i*10 + 5)
		}
		return ks
	}
	cases := []struct {
		name     string
		baseN    int
		fraction float64
		// number of fresh inserts after which the first rebuild must fire
		trigger int
	}{
		// 100 keys at 0.1: threshold = 0.1*100+1 = 11 buffered inserts.
		{"100 keys f=0.1", 100, 0.1, 11},
		// 50 keys at 0.2: threshold = 0.2*50+1 = 11.
		{"50 keys f=0.2", 50, 0.2, 11},
		// Tiny set: threshold = 0.1*5+1 = 1.5, so the 2nd insert fires —
		// the +1 floor keeps it from rebuilding on every single insert.
		{"5 keys f=0.1", 5, 0.1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := must(NewDynamicRMI(sorted(c.baseN), 4))
			d.RebuildFraction = c.fraction
			for i := 1; i <= c.trigger; i++ {
				// Duplicate of an indexed key: ignored, never counts.
				d.Insert(sorted(c.baseN)[i%c.baseN])
				if d.Rebuilds() != 0 {
					t.Fatalf("duplicate insert %d triggered a rebuild", i)
				}
				// Fresh key (odd, so disjoint from the 10i+5 base set).
				d.Insert(uint64(1000000 + 2*i))
				// Re-inserting a buffered key must not count either.
				d.Insert(uint64(1000000 + 2*i))
				want := 0
				if i == c.trigger {
					want = 1
				}
				if d.Rebuilds() != want {
					t.Fatalf("after %d fresh inserts: rebuilds=%d, want %d", i, d.Rebuilds(), want)
				}
			}
			// The merge must have drained the buffer and kept every key.
			for i := 1; i <= c.trigger; i++ {
				if !d.Contains(uint64(1000000 + 2*i)) {
					t.Fatalf("key %d lost across rebuild", 1000000+2*i)
				}
			}
			if d.Len() != c.baseN+c.trigger {
				t.Fatalf("Len=%d, want %d", d.Len(), c.baseN+c.trigger)
			}
		})
	}
}

// Coeffs/RMIFromCoeffs must round-trip exactly: the reconstructed index
// answers every probe identically, bit for bit.
func TestRMICoeffsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := must(data.GenerateKeys(rng, data.Lognormal, 20000))
	orig := must(BuildRMI(keys, 64))
	back := must(RMIFromCoeffs(orig.Coeffs()))
	if back.MaxSearchWindow() != orig.MaxSearchWindow() || back.MemoryBytes() != orig.MemoryBytes() {
		t.Fatalf("window/memory changed across round trip")
	}
	for i := 0; i < len(keys); i += 131 {
		p1, ok1, w1, d1 := orig.Probe(keys, keys[i])
		p2, ok2, w2, d2 := back.Probe(keys, keys[i])
		if p1 != p2 || ok1 != ok2 || w1 != w2 || d1 != d2 {
			t.Fatalf("probe diverged at rank %d: (%d,%v,%d,%v) vs (%d,%v,%d,%v)",
				i, p1, ok1, w1, d1, p2, ok2, w2, d2)
		}
	}
}

func TestRMIFromCoeffsRejectsMalformed(t *testing.T) {
	good := must(BuildRMI([]uint64{1, 5, 9, 13}, 2)).Coeffs()
	bad := [][]float64{
		nil,
		{1, 2, 3},                        // shorter than header
		append([]float64{}, good[1:]...), // truncated
		func() []float64 { c := append([]float64(nil), good...); c[1] = 3; return c }(),   // leaf count mismatch
		func() []float64 { c := append([]float64(nil), good...); c[0] = 0; return c }(),   // non-positive n
		func() []float64 { c := append([]float64(nil), good...); c[1] = 2.5; return c }(), // fractional header
		func() []float64 { c := append([]float64(nil), good...); c[0] = math.NaN(); return c }(),
	}
	for i, c := range bad {
		if r, err := RMIFromCoeffs(c); err == nil {
			t.Fatalf("case %d: malformed vector accepted: %v", i, r)
		}
	}
	if _, err := RMIFromCoeffs(good); err != nil {
		t.Fatalf("well-formed vector rejected: %v", err)
	}
}
