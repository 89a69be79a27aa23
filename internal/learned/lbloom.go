package learned

import (
	"math"
	"math/rand"
	"sort"

	"dlsys/internal/db"
	"dlsys/internal/invalid"
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// LearnedBloom is a learned Bloom filter (Kraska et al.): a small neural
// membership classifier in front of a backup Bloom filter that catches the
// classifier's false negatives, so the structure keeps the Bloom guarantee
// of zero false negatives. When the key set has learnable structure the
// classifier absorbs most positives and the backup filter can be small.
type LearnedBloom struct {
	model     *nn.Network
	threshold float64
	backup    *db.Bloom
	keyScale  float64 // normalisation for key features
}

// LearnedBloomConfig controls construction.
type LearnedBloomConfig struct {
	Hidden    int // classifier hidden width
	Epochs    int
	LR        float64
	TargetFPR float64 // classifier threshold is set for this FPR on the training negatives
	BackupFPR float64 // backup filter's own target
}

// keyFeatures writes a key's classifier features into row: the normalised
// key plus two smooth periodic transforms that help the tiny net carve out
// dense key regions.
func keyFeatures(row []float64, k uint64, scale float64) {
	x := float64(k) / scale
	row[0] = x
	row[1] = math.Sin(2 * math.Pi * x * 8)
	row[2] = math.Cos(2 * math.Pi * x * 32)
}

const numKeyFeatures = 3

// BuildLearnedBloom trains the classifier on the key set against the given
// sample of negatives and assembles the backup filter from the classifier's
// false negatives. A typed *invalid.Error rejects an empty key set or negative
// sample, a TargetFPR outside (0,1) and a Hidden width below 1; a typed
// error from the backup filter rejects a BackupFPR outside (0,1).
func BuildLearnedBloom(rng *rand.Rand, keys, negatives []uint64, cfg LearnedBloomConfig) (*LearnedBloom, error) {
	switch {
	case len(keys) == 0:
		return nil, invalid.New("learned", "BuildLearnedBloom", "empty key set")
	case len(negatives) == 0:
		return nil, invalid.New("learned", "BuildLearnedBloom", "empty negative sample")
	case !(cfg.TargetFPR > 0 && cfg.TargetFPR < 1):
		return nil, invalid.New("learned", "BuildLearnedBloom", "TargetFPR %g out of (0,1)", cfg.TargetFPR)
	case cfg.Hidden < 1:
		return nil, invalid.New("learned", "BuildLearnedBloom", "Hidden width %d below 1", cfg.Hidden)
	}
	maxKey := keys[len(keys)-1]
	for _, k := range negatives {
		if k > maxKey {
			maxKey = k
		}
	}
	scale := float64(maxKey) + 1

	n := len(keys) + len(negatives)
	x := tensor.New(n, numKeyFeatures)
	labels := make([]int, n)
	for i, k := range keys {
		keyFeatures(x.Row(i), k, scale)
		labels[i] = 1
	}
	for i, k := range negatives {
		keyFeatures(x.Row(len(keys)+i), k, scale)
	}
	model := nn.NewMLP(rng, nn.MLPConfig{In: numKeyFeatures, Hidden: []int{cfg.Hidden}, Out: 2})
	tr := nn.NewTrainer(model, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(cfg.LR), rng)
	tr.Fit(x, nn.OneHot(labels, 2), nn.TrainConfig{Epochs: cfg.Epochs, BatchSize: 64})

	lb := &LearnedBloom{model: model, keyScale: scale}
	// Threshold: the (1-TargetFPR) quantile of negative scores.
	negScores := lb.scores(negatives)
	sortFloats(negScores)
	qIdx := int(float64(len(negScores)) * (1 - cfg.TargetFPR))
	if qIdx >= len(negScores) {
		qIdx = len(negScores) - 1
	}
	lb.threshold = negScores[qIdx]

	// Backup filter over the classifier's false negatives, scored in one
	// batch: rows are independent and, for finite features, every GEMM
	// tier is bit-identical, so each score equals MayContain's lb.score(k).
	var fns []uint64
	for i, s := range lb.scores(keys) {
		if s < lb.threshold {
			fns = append(fns, keys[i])
		}
	}
	backup, err := db.NewBloom(maxInt(len(fns), 1), cfg.BackupFPR)
	if err != nil {
		return nil, err
	}
	lb.backup = backup
	for _, k := range fns {
		lb.backup.Add(k)
	}
	return lb, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func sortFloats(a []float64) { sort.Float64s(a) }

// score returns the classifier's positive-class probability for a key.
func (lb *LearnedBloom) score(k uint64) float64 {
	x := tensor.New(1, numKeyFeatures)
	keyFeatures(x.Data, k, lb.keyScale)
	probs := nn.Softmax(lb.model.Forward(x, false))
	return probs.At(0, 1)
}

func (lb *LearnedBloom) scores(keys []uint64) []float64 {
	x := tensor.New(len(keys), numKeyFeatures)
	for i, k := range keys {
		keyFeatures(x.Row(i), k, lb.keyScale)
	}
	probs := nn.Softmax(lb.model.Forward(x, false))
	out := make([]float64, len(keys))
	for i := range out {
		out[i] = probs.At(i, 1)
	}
	return out
}

// MayContain preserves the Bloom contract: never false for a present key.
func (lb *LearnedBloom) MayContain(k uint64) bool {
	if lb.score(k) >= lb.threshold {
		return true
	}
	return lb.backup.MayContain(k)
}

// MeasuredFPR probes with known-absent keys.
func (lb *LearnedBloom) MeasuredFPR(absent []uint64) float64 {
	if len(absent) == 0 {
		return 0
	}
	fp := 0
	for _, k := range absent {
		if lb.MayContain(k) {
			fp++
		}
	}
	return float64(fp) / float64(len(absent))
}

// MemoryBytes counts the classifier at float32 plus the backup filter.
func (lb *LearnedBloom) MemoryBytes() int64 {
	return lb.model.ParamBytes(32) + lb.backup.MemoryBytes() + 8
}

// ClusteredKeys generates a structured key set — keys dense inside a few
// intervals of the key space — the regime where learned filters beat
// classical ones. Returns sorted unique keys.
func ClusteredKeys(rng *rand.Rand, n, clusters int, space uint64) []uint64 {
	seen := map[uint64]bool{}
	keys := make([]uint64, 0, n)
	width := space / uint64(clusters) / 8 // dense spans cover 1/8 of the space
	for len(keys) < n {
		c := uint64(rng.Intn(clusters))
		base := c * (space / uint64(clusters))
		k := base + uint64(rng.Int63n(int64(width)))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sortKeys(keys)
	return keys
}

func sortKeys(a []uint64) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}
