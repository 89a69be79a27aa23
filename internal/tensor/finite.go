package tensor

import "math"

// This file provides the fast numerical-health scans the self-healing
// training supervisor (internal/guard) runs on every step: a branch-light
// all-finite check and a one-pass summary of where a vector's values live.
// Both exploit the identity v-v == 0 ⟺ v is finite (Inf-Inf and NaN-NaN
// are both NaN), which turns the per-element test into a single subtract
// and compare with no function calls in the hot loop.

// AllFinite reports whether every element of xs is finite (no NaN, no ±Inf).
// The loop is unrolled four wide; on an empty slice it returns true.
func AllFinite(xs []float64) bool {
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		d0 := xs[i] - xs[i]
		d1 := xs[i+1] - xs[i+1]
		d2 := xs[i+2] - xs[i+2]
		d3 := xs[i+3] - xs[i+3]
		// Any non-finite input makes its difference NaN, and NaN != 0.
		if d0 != 0 || d1 != 0 || d2 != 0 || d3 != 0 {
			return false
		}
	}
	for ; i < len(xs); i++ {
		if d := xs[i] - xs[i]; d != 0 {
			return false
		}
	}
	return true
}

// Stats summarises the numerical health of a vector in one pass.
type Stats struct {
	Count int     // total elements scanned
	NaNs  int     // elements that were NaN
	Infs  int     // elements that were ±Inf
	Min   float64 // smallest finite value (0 when no finite values)
	Max   float64 // largest finite value (0 when no finite values)
	// AbsMax is the largest finite magnitude (0 when no finite values).
	AbsMax float64
}

// Finite reports whether the scanned vector contained no NaNs or Infs.
func (s Stats) Finite() bool { return s.NaNs == 0 && s.Infs == 0 }

// FiniteStats scans xs once, counting NaN/Inf occurrences and recording the
// finite value range. Detectors use the counts to classify corruption and
// the range to describe it deterministically.
func FiniteStats(xs []float64) Stats {
	s := Stats{Count: len(xs)}
	seen := false
	for _, v := range xs {
		if v-v != 0 { // non-finite
			if math.IsNaN(v) {
				s.NaNs++
			} else {
				s.Infs++
			}
			continue
		}
		if !seen {
			s.Min, s.Max = v, v
			seen = true
		} else if v < s.Min {
			s.Min = v
		} else if v > s.Max {
			s.Max = v
		}
		if a := math.Abs(v); a > s.AbsMax {
			s.AbsMax = a
		}
	}
	return s
}

// FiniteStats summarises the tensor's numerical health.
func (t *Tensor) FiniteStats() Stats { return FiniteStats(t.Data) }

// Norm2Finite returns the Euclidean norm of xs and whether every element is
// finite, in a single pass — the per-step gradient check needs both and
// must not walk the vector twice.
func Norm2Finite(xs []float64) (norm float64, finite bool) {
	var s float64
	finite = true
	for _, v := range xs {
		if v-v != 0 {
			finite = false
			continue
		}
		s += float64(v * v)
	}
	return math.Sqrt(s), finite
}
