package interpret

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dlsys/internal/tensor"
)

// swissRollish generates a 1-D manifold (an arc) embedded in 3-D where
// Euclidean distance is misleading: the arc's ends are close in space but
// far along the manifold.
func swissRollish(rng *rand.Rand, n int) (*tensor.Tensor, []float64) {
	x := tensor.New(n, 3)
	params := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1) // uniform along the manifold
		params[i] = t
		theta := 1.5 * math.Pi * t
		x.Set(math.Cos(theta)+0.01*rng.NormFloat64(), i, 0)
		x.Set(math.Sin(theta)+0.01*rng.NormFloat64(), i, 1)
		x.Set(0.3*t+0.01*rng.NormFloat64(), i, 2)
	}
	return x, params
}

// manifoldCorrelation checks how well 1-D embedding coordinates order the
// points along the known manifold parameter (absolute Spearman-ish
// correlation on ranks).
func manifoldCorrelation(embedded *tensor.Tensor, params []float64) float64 {
	col := make([]float64, embedded.Dim(0))
	for i := range col {
		col[i] = embedded.At(i, 0)
	}
	ra := ranks(col)
	rb := ranks(params)
	n := float64(len(ra))
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return math.Abs(1 - 6*d2/(n*(n*n-1)))
}

// ranks assigns 1-based ranks, ties broken by index.
func ranks(vals []float64) []float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	out := make([]float64, len(vals))
	for rank, i := range idx {
		out[i] = float64(rank + 1)
	}
	return out
}

func TestIsomapRecoversManifoldOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, params := swissRollish(rng, 150)
	emb := Isomap(x, 8, 2)
	corr := manifoldCorrelation(emb, params)
	if corr < 0.95 {
		t.Fatalf("isomap manifold correlation %.3f, want >= 0.95", corr)
	}
}

func TestIsomapBeatsPCAOnCurvedManifold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, params := swissRollish(rng, 150)
	iso := manifoldCorrelation(Isomap(x, 8, 2), params)
	pca := manifoldCorrelation(PCA(x, 2), params)
	t.Logf("manifold ordering: isomap %.3f, pca %.3f", iso, pca)
	if iso <= pca {
		t.Fatalf("isomap (%.3f) should beat PCA (%.3f) on the curved manifold", iso, pca)
	}
}

func TestIsomapHandlesDisconnectedGraph(t *testing.T) {
	// Two far-apart blobs with a small neighbour count: graph disconnects;
	// Isomap must not produce NaN/Inf coordinates.
	rng := rand.New(rand.NewSource(3))
	n := 60
	x := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		base := 0.0
		if i >= n/2 {
			base = 100
		}
		x.Set(base+rng.NormFloat64(), i, 0)
		x.Set(base+rng.NormFloat64(), i, 1)
	}
	emb := Isomap(x, 3, 2)
	for _, v := range emb.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("isomap produced non-finite coordinates")
		}
	}
}

func TestLLEPreservesLocalStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, params := swissRollish(rng, 150)
	emb := LLE(x, 8, 2)
	for _, v := range emb.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("LLE produced non-finite coordinates")
		}
	}
	// LLE should keep manifold neighbours adjacent: points close in the
	// manifold parameter stay close in the embedding.
	np := NeighborPreservation(x, emb, 6)
	if np < 0.35 {
		t.Fatalf("LLE neighbour preservation %.3f too low", np)
	}
	_ = params
}

func TestClassicalMDSRecoversEuclideanConfig(t *testing.T) {
	// MDS on exact Euclidean distances must reproduce pairwise distances.
	rng := rand.New(rand.NewSource(5))
	n := 40
	pts := tensor.RandNormal(rng, 0, 1, n, 2)
	dist := make([][]float64, n)
	for i := 0; i < n; i++ {
		dist[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			dx := pts.At(i, 0) - pts.At(j, 0)
			dy := pts.At(i, 1) - pts.At(j, 1)
			dist[i][j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	emb := classicalMDS(dist, 2)
	var worst float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := emb.At(i, 0) - emb.At(j, 0)
			dy := emb.At(i, 1) - emb.At(j, 1)
			got := math.Sqrt(dx*dx + dy*dy)
			if e := math.Abs(got - dist[i][j]); e > worst {
				worst = e
			}
		}
	}
	if worst > 0.05 {
		t.Fatalf("MDS distance distortion %.4f too large", worst)
	}
}
