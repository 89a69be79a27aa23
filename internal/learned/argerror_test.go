package learned

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/invalid"
)

// Constructors reject bad arguments with a typed *invalid.Error instead of
// panicking.
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
				t.Fatalf("got (%v, %v), want (nil, *invalid.Error)", r, err)
			}
			var ae *invalid.Error
			if !errors.As(err, &ae) || ae.Field != c.fn {
				t.Fatalf("error %v is not an *invalid.Error from %s", err, c.fn)
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
				t.Fatalf("got (%v, %v), want (nil, *invalid.Error)", lb, err)
			}
			var ae *invalid.Error
			if !errors.As(err, &ae) || ae.Field != "BuildLearnedBloom" {
				t.Fatalf("error %v is not an *invalid.Error from BuildLearnedBloom", err)
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
