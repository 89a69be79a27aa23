package explore

import (
	"errors"
	"math/rand"
	"testing"

	"dlsys/internal/db"
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

// insightTable builds a table with a hidden insight: within a narrow band
// of `f`, groups of `g` have wildly different `v` means; elsewhere `v` is
// flat.
func insightTable(rng *rand.Rand, n int) *db.Table {
	t := db.NewTable("sales", "f", "g", "v")
	for i := 0; i < n; i++ {
		f := rng.Float64()
		g := rng.Float64() * 10
		v := 5 + 0.1*rng.NormFloat64()
		if f > 0.8 { // the insight region
			v = 5 + 4*g + rng.NormFloat64()
		}
		t.Append(f, g, v)
	}
	return t
}

func TestViewGridScoresDetectInsight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := insightTable(rng, 4000)
	g := must(NewViewGrid(tab, "f", "g", "v", 5, 4))
	max := g.MaxScore()
	if max < 0.2 {
		t.Fatalf("max interestingness %g too low — insight not visible", max)
	}
	// The insight row (top f quantile) should dominate a boring row.
	boring := g.Score(0, 1)
	insight := g.Score(4, 1)
	if insight <= boring {
		t.Fatalf("insight view (%.3f) should beat boring view (%.3f)", insight, boring)
	}
}

func TestViewGridCachesEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := insightTable(rng, 1000)
	g := must(NewViewGrid(tab, "f", "g", "v", 4, 3))
	g.Score(1, 1)
	g.Score(1, 1)
	g.Score(1, 1)
	if g.Evaluations() != 1 {
		t.Fatalf("evaluations %d, want 1 (cached)", g.Evaluations())
	}
}

func TestQLearnExploreFindsInsightFasterThanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := insightTable(rng, 4000)
	// Ground-truth max score (on a throwaway grid).
	gt := must(NewViewGrid(tab, "f", "g", "v", 6, 4))
	target := gt.MaxScore() * 0.9

	trials := 6
	var rlQueries, rwQueries, rlHits, rwHits int
	for s := 0; s < trials; s++ {
		grl := must(NewViewGrid(tab, "f", "g", "v", 6, 4))
		rl := QLearnExplore(rand.New(rand.NewSource(int64(100+s))), grl, 8, 12, target)
		if rl.QueriesToHit > 0 {
			rlHits++
			rlQueries += rl.QueriesToHit
		}
		grw := must(NewViewGrid(tab, "f", "g", "v", 6, 4))
		rw := RandomWalk(rand.New(rand.NewSource(int64(200+s))), grw, 96, target)
		if rw.QueriesToHit > 0 {
			rwHits++
			rwQueries += rw.QueriesToHit
		}
	}
	if rlHits == 0 {
		t.Fatal("RL agent never found the insight")
	}
	// RL should find the insight at least as reliably, in no more queries
	// on average.
	if rwHits > 0 && rlHits >= rwHits && float64(rlQueries)/float64(rlHits) > 1.5*float64(rwQueries)/float64(rwHits) {
		t.Fatalf("RL needed %d avg queries vs random %d", rlQueries/rlHits, rwQueries/rwHits)
	}
}

func TestEmbeddingImprovesSimilaritySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := RingsDataset(rng, 300, 3, 0.1)
	emb := TrainRingEmbedder(rng, x, labels, 3, 60)
	rawPrec := PrecisionAtK(x, labels, 10)
	embedded := emb.Embed(x)
	embPrec := PrecisionAtK(embedded, labels, 10)
	t.Logf("precision@10: raw %.3f, embedded %.3f", rawPrec, embPrec)
	if embPrec <= rawPrec {
		t.Fatalf("embedding precision %.3f should beat raw %.3f", embPrec, rawPrec)
	}
	if embPrec < 0.7 {
		t.Fatalf("embedding precision %.3f too low", embPrec)
	}
}

func TestCosineKNNExcludesSelfAndOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, _ := RingsDataset(rng, 50, 2, 0.05)
	nbrs := CosineKNN(x, x.Row(7), 5, 7)
	if len(nbrs) != 5 {
		t.Fatalf("got %d neighbours", len(nbrs))
	}
	for _, j := range nbrs {
		if j == 7 {
			t.Fatal("self returned as neighbour")
		}
	}
}

func TestAutoencoderBeatsColumnQuantOnCorrelatedData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := CorrelatedTable(rng, 2000, 8, 0.01)
	ae := TrainAutoencoder(rng, x, AEConfig{
		InDim: 8, Hidden: 24, LatentDim: 2, Epochs: 120, LR: 0.005, BatchSize: 64,
	})
	latent, aeBytes, err := ae.Compress(x, 12)
	if err != nil {
		t.Fatal(err)
	}
	recon := ae.Decompress(latent)
	aeMSE := ReconstructionMSE(x, recon)

	// Find the column-quant bit width with comparable (or worse) error and
	// compare bytes.
	for _, bits := range []int{8, 10, 12} {
		bBytes, bMSE, err := ColumnQuantBaseline(x, bits)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("AE: %d B @ MSE %.6f | colquant %d-bit: %d B @ MSE %.6f", aeBytes, aeMSE, bits, bBytes, bMSE)
		if bMSE >= aeMSE && bBytes <= aeBytes {
			t.Fatalf("baseline dominates AE at %d bits", bits)
		}
	}
	// The AE must compress below the 12-bit baseline while keeping error in
	// the same ballpark (within 4x of 8-bit baseline error).
	b12Bytes, _, _ := ColumnQuantBaseline(x, 12)
	if aeBytes >= b12Bytes {
		t.Fatalf("AE bytes %d not below 12-bit column baseline %d", aeBytes, b12Bytes)
	}
}

func TestAutoencoderRoundTripShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := CorrelatedTable(rng, 100, 4, 0.05)
	ae := TrainAutoencoder(rng, x, AEConfig{InDim: 4, Hidden: 8, LatentDim: 2, Epochs: 10, LR: 0.01, BatchSize: 32})
	latent, _, err := ae.Compress(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	recon := ae.Decompress(latent)
	if recon.Dim(0) != 100 || recon.Dim(1) != 4 {
		t.Fatalf("reconstruction shape %v", recon.Shape())
	}
}

func TestNewViewGridRejectsUnknownColumns(t *testing.T) {
	tab := db.NewTable("t", "f", "g", "v")
	must(0, tab.Append(1, 2, 3))
	for _, cols := range [][3]string{
		{"ghost", "g", "v"}, {"f", "ghost", "v"}, {"f", "g", "ghost"},
	} {
		_, err := NewViewGrid(tab, cols[0], cols[1], cols[2], 2, 2)
		if err == nil {
			t.Fatalf("grid over %v built despite unknown column", cols)
		}
		var ae *invalid.Error
		if !errors.As(err, &ae) {
			t.Fatalf("error %v is not a *invalid.Error", err)
		}
	}
}

// A training step gathers into one reused batch buffer. The difference
// between a 2-epoch and a 1-epoch run is one epoch of 16 steps, so set-up
// allocations cancel.
func TestTrainAutoencoderStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	x := CorrelatedTable(rand.New(rand.NewSource(1)), 256, 6, 0.05)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			TrainAutoencoder(rand.New(rand.NewSource(2)), x, AEConfig{
				InDim: 6, Hidden: 8, LatentDim: 2, Epochs: epochs, LR: 0.01, BatchSize: 16,
			})
		})
	}
	perStep := (allocs(2) - allocs(1)) / 16
	t.Logf("%v allocations per step", perStep)
	if perStep != 0 {
		t.Fatalf("a TrainAutoencoder step makes %v allocations, want 0", perStep)
	}
}
