package distributed

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
)

// fuzzProbs are the probability values a fuzz byte picks from first:
// ordinary rates, both ends of [0, 1], just outside it, NaN and ±Inf.
var fuzzProbs = []float64{0, 0.05, 0.3, 0.5, 0.9, 1, -0.1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}

// fuzzProb maps a byte to a fuzzProbs entry, or else to a rate spread
// over [-0.1, 1.1].
func fuzzProb(b byte) float64 {
	if int(b) < len(fuzzProbs) {
		return fuzzProbs[b]
	}
	return float64(b)/255*1.2 - 0.1
}

// fuzzFactors are the LinkSlowFactor values a fuzz byte picks from.
var fuzzFactors = []float64{0, 0.5, 1, 3, 8, math.NaN(), math.Inf(1), -2}

// decodeCollectiveConfig turns fuzz bytes into a small one-epoch run: 2–12
// workers, the star or one of the four collectives, GroupSize 0–7,
// MaxRetries 0–70, link, slow and partition probabilities (NaN, ±Inf and
// out-of-range values included), and up to four churn events, some naming
// workers out of range. Missing bytes read as zero.
func decodeCollectiveConfig(in []byte) Config {
	at := func(i int) byte {
		if i < len(in) {
			return in[i]
		}
		return 0
	}
	topos := append([]Topology{TopoDefault}, Topologies()...)
	workers := 2 + int(at(0))%11
	c := Config{
		Workers: workers, Arch: nn.MLPConfig{In: 5, Hidden: []int{4}, Out: 3},
		Epochs: 1, BatchSize: 4, LR: 0.1, AveragePeriod: 1 + int(at(10))%2,
		Topology:   topos[int(at(1))%len(topos)],
		GroupSize:  int(at(2)) % 8,
		MaxRetries: int(at(3)) % 71,
		Fault: fault.Config{
			Seed:            int64(at(4)),
			LinkDropProb:    fuzzProb(at(5)),
			LinkSlowProb:    fuzzProb(at(6)),
			LinkSlowFactor:  fuzzFactors[int(at(7))%len(fuzzFactors)],
			PartitionProb:   fuzzProb(at(8)),
			PartitionRounds: int(at(9)) % 5,
		},
	}
	for i := 11; i+2 < len(in) && len(c.Churn) < 4; i += 3 {
		c.Churn = append(c.Churn, ChurnEvent{
			Round:  int(in[i]) % 8,
			Worker: int(in[i+1]) % (workers + 1),
			Join:   in[i+2]&1 == 1,
		})
	}
	return c
}

// FuzzCollectiveConfig holds every config Validate accepts to its
// promise: Train does not panic, and the obs counters reconcile with
// Stats exactly.
func FuzzCollectiveConfig(f *testing.F) {
	ds := data.GaussianMixture(rand.New(rand.NewSource(5)), 96, 5, 3, 3.2)
	y := nn.OneHot(ds.Labels, 3)
	// workers, topology, group size, retries, seed, drop, slow, factor,
	// partition, partition rounds, H, then churn triples.
	f.Add([]byte{6, 2, 0, 64, 1, 5, 0, 0, 0, 0, 0})                   // ring, 64 retries, every hop lost
	f.Add([]byte{6, 2, 0, 65, 1, 5, 0, 0, 0, 0, 0})                   // 65 retries: rejected
	f.Add([]byte{9, 4, 3, 3, 7, 2, 2, 3, 3, 2, 0})                    // hier, groups of 3, every link fault
	f.Add([]byte{10, 3, 0, 2, 9, 4, 5, 1, 5, 3, 1, 1, 2, 0, 4, 2, 1}) // tree, Local SGD, leave and rejoin
	f.Add([]byte{0, 1, 0, 1, 2, 5, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0})  // all-to-all, every member leaves
	f.Add([]byte{4, 0, 0, 0, 0, 8, 9, 5, 10, 0, 0})                   // NaN and ±Inf rates: rejected
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := decodeCollectiveConfig(in)
		if cfg.Validate() != nil {
			return
		}
		h := obs.NewHandle()
		cfg.Obs = h
		_, stats, err := Train(int64(len(in)), ds.X, y, cfg)
		if err != nil {
			t.Fatalf("Train rejected a config Validate accepted: %v (%+v)", err, cfg)
		}
		if err := stats.Reconcile(h); err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
	})
}
