package data

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/invalid"
)

// must unwraps (value, error) pairs whose arguments are valid by
// construction; a failure is a test bug, so it panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestGaussianMixtureShapeAndBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := GaussianMixture(rng, 300, 4, 3, 5)
	if ds.N() != 300 || ds.X.Dim(1) != 4 || ds.Classes != 3 {
		t.Fatalf("bad dataset: n=%d dim=%d classes=%d", ds.N(), ds.X.Dim(1), ds.Classes)
	}
	counts := make([]int, 3)
	for _, l := range ds.Labels {
		counts[l]++
	}
	for c, cnt := range counts {
		if cnt != 100 {
			t.Fatalf("class %d count %d, want 100", c, cnt)
		}
	}
}

func TestSplitPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := GaussianMixture(rng, 100, 2, 2, 3)
	tr, te := ds.Split(rng, 0.8)
	if tr.N() != 80 || te.N() != 20 {
		t.Fatalf("split sizes %d/%d", tr.N(), te.N())
	}
}

func TestTwoMoonsNotLinearlySeparableButClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := TwoMoons(rng, 200, 0.05)
	if ds.N() != 200 || ds.Classes != 2 {
		t.Fatal("bad two moons")
	}
	// Class 0 points lie on the upper moon (mean y > 0.25 of class 1).
	var y0, y1 float64
	var n0, n1 int
	for i, l := range ds.Labels {
		if l == 0 {
			y0 += ds.X.At(i, 1)
			n0++
		} else {
			y1 += ds.X.At(i, 1)
			n1++
		}
	}
	if y0/float64(n0) <= y1/float64(n1) {
		t.Fatal("moons not separated vertically on average")
	}
}

func TestSyntheticDigitsGlyphBrighter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds, masks := SyntheticDigits(rng, DigitsConfig{N: 40})
	s := 8
	for i := 0; i < ds.N(); i++ {
		c := ds.Labels[i]
		var in, out float64
		var nin, nout int
		for p := 0; p < s*s; p++ {
			v := ds.X.Data[i*s*s+p]
			if masks[c][p] {
				in += v
				nin++
			} else {
				out += v
				nout++
			}
		}
		if in/float64(nin) < out/float64(nout)+0.5 {
			t.Fatalf("example %d: glyph not bright (in=%g out=%g)", i, in/float64(nin), out/float64(nout))
		}
	}
}

func TestGenerateKeysSortedDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dist := range []KeyDistribution{Uniform, ZipfGaps, Lognormal} {
		keys := must(GenerateKeys(rng, dist, 5000))
		if len(keys) != 5000 {
			t.Fatalf("%s: got %d keys", dist, len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("%s: keys not strictly ascending at %d", dist, i)
			}
		}
	}
}

func TestNegativeKeysAbsent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := must(GenerateKeys(rng, Uniform, 1000))
	present := make(map[uint64]bool)
	for _, k := range keys {
		present[k] = true
	}
	for _, k := range NegativeKeys(rng, keys, 500) {
		if present[k] {
			t.Fatalf("negative key %d is present", k)
		}
	}
}

func TestCorrelatedTuplesCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := CorrelatedTuples(rng, 5000, 0.9)
	// Pearson correlation between a and b should be high.
	var ma, mb float64
	for _, r := range rows {
		ma += r[0]
		mb += r[1]
	}
	ma /= float64(len(rows))
	mb /= float64(len(rows))
	var cov, va, vb float64
	for _, r := range rows {
		cov += (r[0] - ma) * (r[1] - mb)
		va += (r[0] - ma) * (r[0] - ma)
		vb += (r[1] - mb) * (r[1] - mb)
	}
	corr := cov / math.Sqrt(va*vb)
	if corr < 0.7 {
		t.Fatalf("a-b correlation %g, want > 0.7", corr)
	}
}

func TestBiasedCensusInjectsBias(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	unbiased := BiasedCensus(rng, CensusConfig{N: 4000, Bias: 0})
	biased := BiasedCensus(rand.New(rand.NewSource(9)), CensusConfig{N: 4000, Bias: 0.8})

	posRate := func(c *CensusData, g int) float64 {
		var pos, n int
		for i, l := range c.Labels {
			if c.Group[i] == g {
				n++
				pos += l
			}
		}
		return float64(pos) / float64(n)
	}
	// Without bias, positive rates are close across groups.
	gap0 := math.Abs(posRate(unbiased, 0) - posRate(unbiased, 1))
	gapB := math.Abs(posRate(biased, 0) - posRate(biased, 1))
	if gap0 > 0.08 {
		t.Fatalf("unbiased gap too large: %g", gap0)
	}
	if gapB < gap0+0.15 {
		t.Fatalf("bias injection ineffective: gap0=%g gapB=%g", gap0, gapB)
	}
	// Labels never exceed merit for the protected group (bias only denies).
	for i := range biased.Labels {
		if biased.Group[i] == 1 && biased.Labels[i] > biased.TrueMerit[i] {
			t.Fatal("bias should only flip positive→negative")
		}
	}
}

func TestCensusSplitAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := BiasedCensus(rng, CensusConfig{N: 1000, Bias: 0.5})
	tr, te := c.SplitCensus(rng, 0.7)
	if tr.N() != 700 || te.N() != 300 {
		t.Fatalf("split sizes %d/%d", tr.N(), te.N())
	}
	if len(tr.Group) != 700 || len(tr.TrueMerit) != 700 {
		t.Fatal("aux arrays misaligned")
	}
}

func TestRegressionGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y, w := Regression(rng, RegressionConfig{N: 2000, Dim: 3, Noise: 0.1})
	if x.Dim(0) != 2000 || y.Dim(1) != 1 || len(w) != 3 {
		t.Fatal("shapes wrong")
	}
	// Least squares on the generated data should recover w closely.
	// Solve (XᵀX)β = Xᵀy with 3x3 Gaussian elimination.
	var xtx [3][4]float64
	for i := 0; i < 2000; i++ {
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				xtx[a][b] += x.At(i, a) * x.At(i, b)
			}
			xtx[a][3] += x.At(i, a) * y.Data[i]
		}
	}
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(xtx[r][col]) > math.Abs(xtx[p][col]) {
				p = r
			}
		}
		xtx[col], xtx[p] = xtx[p], xtx[col]
		for r := col + 1; r < 3; r++ {
			f := xtx[r][col] / xtx[col][col]
			for c := col; c < 4; c++ {
				xtx[r][c] -= f * xtx[col][c]
			}
		}
	}
	var beta [3]float64
	for r := 2; r >= 0; r-- {
		s := xtx[r][3]
		for c := r + 1; c < 3; c++ {
			s -= xtx[r][c] * beta[c]
		}
		beta[r] = s / xtx[r][r]
	}
	for j := 0; j < 3; j++ {
		if math.Abs(beta[j]-w[j]) > 0.05 {
			t.Fatalf("weight %d: recovered %g, true %g", j, beta[j], w[j])
		}
	}
}

func TestRegressionNonlinearHurtsLinearFit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	_, yLin, _ := Regression(rng, RegressionConfig{N: 500, Dim: 2, Noise: 0.01})
	_, yNon, _ := Regression(rand.New(rand.NewSource(12)), RegressionConfig{N: 500, Dim: 2, Noise: 0.01, Nonlinear: true})
	// The nonlinear targets must actually differ.
	diff := 0.0
	for i := range yLin.Data {
		diff += math.Abs(yLin.Data[i] - yNon.Data[i])
	}
	if diff/float64(len(yLin.Data)) < 0.5 {
		t.Fatal("nonlinear term had no effect")
	}
}

func TestGenerateKeysUnknownDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, err := GenerateKeys(rng, KeyDistribution("cauchy"), 10)
	if err == nil {
		t.Fatal("unknown distribution accepted")
	}
	var de *invalid.Error
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a *invalid.Error", err)
	}
	if want := `data: GenerateKeys: unknown key distribution "cauchy"`; de.Error() != want {
		t.Fatalf("error %q, want %q", de.Error(), want)
	}
}
