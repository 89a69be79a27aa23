package data

import (
	"math"
	"math/rand"
	"sort"

	"dlsys/internal/invalid"
)

// KeyDistribution names a synthetic key distribution for the learned-index
// experiments (E13/E14). The distributions mirror the standard learned-index
// evaluation sets: smooth (uniform), skewed (zipf-like gaps), and heavy-
// tailed (lognormal).
type KeyDistribution string

// Key distributions supported by GenerateKeys.
const (
	Uniform   KeyDistribution = "uniform"
	ZipfGaps  KeyDistribution = "zipf"
	Lognormal KeyDistribution = "lognormal"
)

// GenerateKeys returns n distinct uint64 keys drawn from the named
// distribution, sorted ascending. An unknown distribution yields a typed
// *invalid.Error.
func GenerateKeys(rng *rand.Rand, dist KeyDistribution, n int) ([]uint64, error) {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	add := func(k uint64) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	switch dist {
	case Uniform:
		for len(keys) < n {
			add(rng.Uint64() >> 16) // keep headroom for "missing key" probes
		}
	case ZipfGaps:
		// Cumulative zipf-distributed gaps: long stretches of dense keys
		// separated by rare huge jumps — a hard, highly-skewed CDF.
		z := rand.NewZipf(rng, 1.3, 1, 1<<20)
		var cur uint64
		for len(keys) < n {
			cur += z.Uint64() + 1
			add(cur)
		}
	case Lognormal:
		for len(keys) < n {
			v := math.Exp(rng.NormFloat64()*2 + 10)
			add(uint64(v * 1000))
		}
	default:
		return nil, invalid.New("data", "GenerateKeys", "unknown key distribution %q", dist)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// NegativeKeys returns n keys guaranteed absent from the sorted key set,
// drawn between existing keys — the adversarial case for filters.
func NegativeKeys(rng *rand.Rand, keys []uint64, n int) []uint64 {
	present := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		present[k] = true
	}
	out := make([]uint64, 0, n)
	maxKey := keys[len(keys)-1]
	for len(out) < n {
		k := rng.Uint64() % (maxKey + 2)
		if !present[k] {
			out = append(out, k)
		}
	}
	return out
}

// CorrelatedTuples generates rows over three correlated numeric attributes
// for the selectivity-estimation experiment (E15). a ~ U[0,1);
// b = clamp(a + strength-scaled noise); c = clamp(a·b + noise). Histograms
// assuming attribute independence systematically mis-estimate conjunctive
// selectivities on this data.
func CorrelatedTuples(rng *rand.Rand, n int, corr float64) [][3]float64 {
	noise := 1 - corr
	rows := make([][3]float64, n)
	for i := range rows {
		a := rng.Float64()
		b := clamp01(corr*a + noise*rng.Float64())
		c := clamp01(corr*a*b + noise*rng.Float64())
		rows[i] = [3]float64{a, b, c}
	}
	return rows
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
