package learned

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/db"
)

// must unwraps (value, error) pairs whose arguments are valid by
// construction; a failure is a test bug, so it panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestRMIFindsEveryKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dist := range []data.KeyDistribution{data.Uniform, data.ZipfGaps, data.Lognormal} {
		keys := must(data.GenerateKeys(rng, dist, 20000))
		idx := must(BuildRMI(keys, 128))
		for i, k := range keys {
			pos, ok := idx.Lookup(keys, k)
			if !ok || pos != i {
				t.Fatalf("%s: key %d (rank %d): got pos=%d ok=%v", dist, k, i, pos, ok)
			}
		}
	}
}

func TestRMIAbsentKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := must(data.GenerateKeys(rng, data.Uniform, 10000))
	for _, k := range data.NegativeKeys(rng, keys, 2000) {
		if _, ok := must(BuildRMI(keys, 64)).Lookup(keys, k); ok {
			t.Fatalf("found absent key %d", k)
		}
	}
}

func TestRMISmallerThanBTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := must(data.GenerateKeys(rng, data.Uniform, 100000))
	idx := must(BuildRMI(keys, 256))
	bt := db.BulkLoadBTree(keys)
	if idx.MemoryBytes()*10 >= bt.MemoryBytes() {
		t.Fatalf("RMI %d B should be >=10x smaller than B-tree %d B", idx.MemoryBytes(), bt.MemoryBytes())
	}
}

func TestRMIMoreLeavesSmallerWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := must(data.GenerateKeys(rng, data.Lognormal, 50000))
	coarse := must(BuildRMI(keys, 16))
	fine := must(BuildRMI(keys, 1024))
	if fine.MaxSearchWindow() >= coarse.MaxSearchWindow() {
		t.Fatalf("finer RMI window %d should beat coarse %d",
			fine.MaxSearchWindow(), coarse.MaxSearchWindow())
	}
}

func TestLearnedBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := ClusteredKeys(rng, 3000, 4, 1<<30)
	negs := data.NegativeKeys(rng, keys, 3000)
	lb := must(BuildLearnedBloom(rng, keys, negs, LearnedBloomConfig{
		Hidden: 12, Epochs: 30, LR: 0.01, TargetFPR: 0.05, BackupFPR: 0.05,
	}))
	for _, k := range keys {
		if !lb.MayContain(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
}

func TestLearnedBloomCompetitiveMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := ClusteredKeys(rng, 5000, 4, 1<<30)
	trainNegs := data.NegativeKeys(rng, keys, 5000)
	testNegs := data.NegativeKeys(rng, keys, 20000)

	lb := must(BuildLearnedBloom(rng, keys, trainNegs, LearnedBloomConfig{
		Hidden: 12, Epochs: 40, LR: 0.01, TargetFPR: 0.03, BackupFPR: 0.03,
	}))
	lfpr := lb.MeasuredFPR(testNegs)

	// Classic filter sized to the SAME measured FPR.
	target := math.Max(lfpr, 0.001)
	cb := must(db.NewBloom(len(keys), target))
	for _, k := range keys {
		cb.Add(k)
	}
	// The learned filter must deliver a usable FPR; on clustered keys its
	// classifier absorbs most of the key set so the backup stays small.
	if lfpr > 0.25 {
		t.Fatalf("learned filter FPR %g unusable", lfpr)
	}
	t.Logf("learned: %d B @ FPR %.4f; classic at same FPR: %d B",
		lb.MemoryBytes(), lfpr, cb.MemoryBytes())
}

func TestSelectivityEstimatorBeatsHistogramsOnCorrelatedData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := data.CorrelatedTuples(rng, 8000, 0.9)
	tab := db.NewTable("t", "a", "b", "c")
	for _, r := range rows {
		tab.Append(r[0], r[1], r[2])
	}
	est := TrainSelectivityEstimator(rng, tab, SelectivityConfig{
		Hidden: []int{32, 32}, Queries: 1500, Epochs: 60, LR: 0.005, BatchSize: 64,
	})
	hist := must(db.NewIndependentEstimator(tab, 32))

	qrng := rand.New(rand.NewSource(8))
	nnMed, nnP95 := QErrorStats(qrng, tab, est.Estimate, 300)
	qrng = rand.New(rand.NewSource(8))
	hMed, hP95 := QErrorStats(qrng, tab, func(p []db.Pred) float64 { return must(hist.Estimate(p)) }, 300)

	t.Logf("NN q-error: med %.2f p95 %.2f; histogram: med %.2f p95 %.2f", nnMed, nnP95, hMed, hP95)
	if nnMed >= hMed {
		t.Fatalf("learned median q-error %.3f should beat histograms %.3f", nnMed, hMed)
	}
	if nnP95 >= hP95 {
		t.Fatalf("learned p95 q-error %.3f should beat histograms %.3f", nnP95, hP95)
	}
}

func TestQTunerApproachesGridOptimumWithFewerEvals(t *testing.T) {
	units := 20
	// Grid search at step 1 finds the true optimum with many evaluations.
	gridEnv := NewKnobEnv(rand.New(rand.NewSource(9)), units, 0)
	gridBest, gridVal := GridSearch(gridEnv, 1)
	gridEvals := gridEnv.Evaluations()

	rlEnv := NewKnobEnv(rand.New(rand.NewSource(10)), units, 0.5)
	tuner := NewQTuner()
	_, rlVal := tuner.Run(rand.New(rand.NewSource(11)), rlEnv, 12, 8)
	rlEvals := rlEnv.Evaluations()

	if rlEvals >= gridEvals/2 {
		t.Fatalf("RL used %d evals, grid used %d: not cheaper", rlEvals, gridEvals)
	}
	// Within 5% of the optimum despite noisy measurements.
	if rlVal < gridVal*0.95 {
		t.Fatalf("RL best %.2f too far below grid optimum %.2f (best alloc %v)", rlVal, gridVal, gridBest)
	}
}

func TestKnobEnvConcaveOptimumOffCenter(t *testing.T) {
	e := NewKnobEnv(rand.New(rand.NewSource(12)), 30, 0)
	even := e.TrueThroughput([3]int{10, 10, 10})
	best, bestVal := GridSearch(e, 1)
	if bestVal <= even {
		t.Fatalf("optimum %v (%.2f) should beat the even split (%.2f)", best, bestVal, even)
	}
	if best[0] <= best[1] {
		t.Fatalf("buffer pool should dominate the optimum: %v", best)
	}
}

func TestJoinCostModelLearnsSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := TrainJoinCostModel(rng, 150, 7, 40)
	// On fresh graphs, predictions should correlate with the truth.
	var se, n float64
	for trial := 0; trial < 30; trial++ {
		g := RandomJoinGraph(rng, 5)
		perm := rng.Perm(5)
		joined := perm[:2]
		cand := perm[2]
		pred := m.PredictLogSize(g, joined, cand, g.ResultSize(joined))
		truth := math.Log(g.ResultSize(perm[:3]))
		se += (pred - truth) * (pred - truth)
		n++
	}
	rmse := math.Sqrt(se / n)
	// Log sizes span ~[0, 35]; RMSE must be far below the spread.
	if rmse > 3.5 {
		t.Fatalf("join cost model RMSE %.2f too high", rmse)
	}
}

func TestLearnedPlannerNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := TrainJoinCostModel(rng, 200, 7, 40)
	worseCount := 0
	trials := 25
	for trial := 0; trial < trials; trial++ {
		g := RandomJoinGraph(rng, 6)
		_, optCost := g.DPOptimal()
		_, learnedCost := m.PlanGreedy(g)
		if learnedCost > optCost*100 {
			worseCount++
		}
	}
	// The learned planner should land within 2 orders of magnitude of the
	// optimum on the large majority of graphs (plan costs span 10+ orders).
	if worseCount > trials/4 {
		t.Fatalf("learned planner catastrophically off on %d/%d graphs", worseCount, trials)
	}
}

// BuildLearnedBloom scores every key and negative with one batched forward
// over its training rows, for the threshold and the false negatives, so
// every batched score must equal the single-row score MayContain computes.
// 6400 keys put the batch's first-layer product (9601·3·8) past the packed
// kernel's FLOP threshold while a single row stays on the reference
// kernel, which pins the tier equivalence the batching relies on at the
// shape the live index builds.
func TestBatchedScoresMatchPerKeyScores(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	keys := ClusteredKeys(rng, 6400, 4, 1<<30)
	negs := data.NegativeKeys(rng, keys, len(keys)/2+1)
	lb := must(BuildLearnedBloom(rng, keys, negs, LearnedBloomConfig{
		Hidden: 8, Epochs: 3, LR: 0.01, TargetFPR: 0.025, BackupFPR: 0.025,
	}))
	rows := append(append([]uint64(nil), keys...), negs...)
	for i, s := range lb.rowScores(trainingRows(keys, negs, lb.keyScale)) {
		if one := lb.score(rows[i]); math.Float64bits(s) != math.Float64bits(one) {
			t.Fatalf("row %d (key %d): batched score %v, single-row score %v", i, rows[i], s, one)
		}
	}
}
