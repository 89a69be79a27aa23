package guard

import "testing"

// The explosion predicate's boundary semantics, per explodeMinNorm's doc:
// norms strictly below the floor are never explosions, a norm exactly at
// the floor is still eligible, and the relative test against the rolling
// median decides from there. The floor row at exactly the floor is the
// regression case for the historical off-by-one (the floor comparison used
// to be strict, silently exempting the boundary itself).
func TestGradExplosionBoundary(t *testing.T) {
	const (
		factor  = 10.0
		minNorm = 1.0
	)
	cases := []struct {
		name   string
		norm   float64
		median float64
		want   bool
	}{
		{"well below floor", 0.5, 0.01, false},
		{"just below floor", minNorm - 1e-12, 0.01, false},
		{"exactly at floor, relative test fires", minNorm, 0.05, true},
		{"exactly at floor, relative test quiet", minNorm, 0.2, false},
		{"above floor, exactly factor times median", 2.0, 0.2, false},
		{"above floor, just past factor times median", 2.0 + 1e-9, 0.2, true},
		{"clear explosion", 50, 0.3, true},
		{"large norm, proportionally large median", 50, 20, false},
		{"zero median ties the relative test to the floor", minNorm, 0, true},
		{"zero median below the floor stays quiet", 0.99, 0, false},
	}
	for _, c := range cases {
		if got := gradExplosion(c.norm, c.median, factor, minNorm); got != c.want {
			t.Errorf("%s: gradExplosion(norm=%g, median=%g) = %v, want %v",
				c.name, c.norm, c.median, got, c.want)
		}
	}
}
