package distributed

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/invalid"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
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

// fuzzFactors and fuzzTimes are the window Factor and StartS/EndS values
// a fuzz byte picks from: the default, ordinary and extreme values,
// negatives, NaN and ±Inf. The times span a one-epoch run on the star,
// about 5e-5 simulated seconds.
var (
	fuzzFactors = []float64{0, 0.5, 1, 3, 8, 64, 1e4, math.NaN(), math.Inf(1), -2}
	fuzzTimes   = []float64{0, 1e-5, 2e-5, 5e-5, 1e-4, 1e-2, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
)

// fuzzIns, fuzzHiddens and fuzzOuts are the arch values the high bits of
// bytes 5 and 6 pick. Index 0 is the 5→4→3 MLP the fuzz data fits; the
// rest are widths the data cannot take, no or two hidden layers, and
// widths nn.MLPConfig.Validate rejects.
var (
	fuzzIns     = []int{5, 4, 6, 0}
	fuzzHiddens = [][]int{{4}, {}, {2, 3}, {-2}}
	fuzzOuts    = []int{3, 2, 4, 0}
)

// fuzzKinds are the worker, message, numerical, Byzantine and link fault
// kinds. Training draws every one but KindLRSpike, which Validate rejects;
// it keeps its index, so every seed below keeps its meaning.
var fuzzKinds = []fault.Kind{
	fault.KindCrash, fault.KindStraggle, fault.KindDrop, fault.KindCorrupt,
	fault.KindBatchCorrupt, fault.KindLabelNoise, fault.KindLRSpike,
	fault.KindSignFlip, fault.KindScaleAttack, fault.KindDriftAttack, fault.KindCollude,
	fault.KindLinkDrop, fault.KindLinkSlow, fault.KindPartition,
}

// decodeCollectiveConfig turns fuzz bytes into a small one-epoch run: 2–12
// workers, the star or one of the four collectives, MaxRetries 0–70, an
// MLP arch (widths the data does not fit and invalid widths included), a
// plain or CoordMedian aggregator with or
// without an enforcing guard, up to four fault windows of any training
// kind (NaN, ±Inf and out-of-range fields included, and workers past the
// job's), and up to four churn events, some naming workers out of range.
// Missing bytes read as zero.
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
		Workers: workers,
		Arch: nn.MLPConfig{
			In:     fuzzIns[at(5)>>1&3],
			Hidden: fuzzHiddens[at(5)>>3&3],
			Out:    fuzzOuts[at(6)>>2&3],
		},
		Epochs: 1, BatchSize: 4, LR: 0.1, AveragePeriod: 1 + int(at(5))%2,
		Topology:   topos[int(at(1))%len(topos)],
		MaxRetries: int(at(2)) % 71,
		Fault: fault.Config{
			Seed:            int64(at(3)),
			PartitionRounds: int(at(4)) % 5,
			RestartDelay:    int(at(4)) / 5 % 5,
		},
	}
	if at(6)&1 != 0 {
		c.Aggregator = robust.CoordMedian{}
	}
	if at(6)&2 != 0 {
		c.Guard = &guard.Policy{Mode: guard.Enforce}
	}
	i := 8
	for n := int(at(7)) % 5; n > 0 && i+5 < len(in); n, i = n-1, i+6 {
		w := fault.Window{
			Kind:   fuzzKinds[int(in[i])%len(fuzzKinds)],
			StartS: fuzzTimes[int(in[i+2])%len(fuzzTimes)],
			EndS:   fuzzTimes[int(in[i+3])%len(fuzzTimes)],
			Prob:   fuzzProb(in[i+4]),
			Factor: fuzzFactors[int(in[i+5])%len(fuzzFactors)],
		}
		if id := int(in[i+1]) % 16; id < 13 {
			w.Workers = []int{id}
		}
		c.Fault.Schedule = append(c.Fault.Schedule, w)
	}
	for ; i+2 < len(in) && len(c.Churn) < 4; i += 3 {
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
// Stats exactly. The one rejection Validate leaves to Train is an arch
// whose widths the data does not fit. Any config Validate rejects, such as
// a drop or corrupt window listing workers on a collective, is skipped.
func FuzzCollectiveConfig(f *testing.F) {
	ds := data.GaussianMixture(rand.New(rand.NewSource(5)), 96, 5, 3, 3.2)
	y := nn.OneHot(ds.Labels, 3)
	// Bytes 0–7 are workers, topology, retries, fault seed, partition
	// rounds and restart delay, H (bit 0) with the arch's input width
	// (bits 1–2) and hidden layers (bits 3–4), defences (bit 0 median,
	// bit 1 guard) with the output width (bits 2–3), and the window count.
	// Each window is six bytes: kind (an index into fuzzKinds), worker
	// (13–15 mean every worker), start, end, prob and factor. Churn triples
	// follow the windows.
	f.Add([]byte{6, 2, 64, 1, 0, 0, 0, 1, 11, 13, 0, 0, 5, 0})                   // ring, 64 retries, every hop lost
	f.Add([]byte{6, 2, 65, 1, 0, 0, 0, 1, 11, 13, 0, 0, 5, 0})                   // 65 retries: rejected
	f.Add([]byte{4, 0, 3, 2, 7, 0, 0, 1, 0, 1, 0, 0, 5, 0})                      // crash: worker 1 always down
	f.Add([]byte{5, 0, 3, 3, 0, 0, 0, 1, 1, 13, 0, 0, 3, 6})                     // straggle ×1e4 on the star
	f.Add([]byte{5, 0, 2, 4, 0, 0, 0, 1, 2, 13, 1, 3, 4, 0})                     // drop burst in [1e-5, 5e-5)
	f.Add([]byte{5, 0, 3, 5, 0, 0, 0, 1, 3, 13, 0, 0, 3, 0})                     // corrupt
	f.Add([]byte{6, 0, 3, 6, 0, 0, 2, 1, 4, 13, 0, 0, 2, 0})                     // batch-corrupt, guarded
	f.Add([]byte{6, 0, 3, 7, 0, 1, 2, 1, 5, 13, 0, 0, 5, 0})                     // label noise, Local SGD, guarded
	f.Add([]byte{6, 0, 3, 8, 0, 0, 0, 1, 6, 13, 0, 0, 3, 6})                     // lr-spike ×1e4: rejected, since only guard.Fit reads it
	f.Add([]byte{8, 0, 3, 9, 0, 0, 1, 1, 7, 2, 0, 0, 0, 5})                      // sign-flip ×64 by worker 2, median
	f.Add([]byte{8, 2, 3, 10, 0, 1, 3, 1, 8, 3, 1, 0, 0, 6})                     // scale-attack ×1e4 from 1e-5 s, ring, Local SGD
	f.Add([]byte{8, 3, 3, 11, 0, 0, 1, 1, 9, 4, 0, 0, 2, 3})                     // drift ×3 at rate 0.3, tree, median
	f.Add([]byte{8, 0, 3, 12, 0, 0, 3, 2, 10, 5, 0, 0, 0, 0, 10, 6, 0, 0, 0, 0}) // collude by workers 5 and 6, guarded median
	f.Add([]byte{9, 4, 3, 13, 0, 0, 0, 1, 11, 13, 0, 0, 3, 0})                   // link-drop on hier
	f.Add([]byte{9, 2, 3, 14, 0, 0, 0, 1, 12, 13, 0, 0, 5, 1})                   // link-slow ×0.5 (default 8) on a ring
	f.Add([]byte{9, 3, 3, 15, 2, 0, 0, 1, 13, 13, 0, 0, 3, 0})                   // partitions of 2 rounds on a tree
	f.Add([]byte{9, 4, 3, 7, 2, 0, 3, 4, 11, 13, 0, 0, 2, 0, 12, 13, 0, 0, 2, 3,
		13, 13, 0, 0, 2, 0, 7, 4, 0, 0, 0, 0}) // every link fault and a sign-flip on hier
	f.Add([]byte{10, 3, 2, 9, 0, 1, 0, 0, 1, 2, 0, 4, 2, 1})                    // tree, Local SGD, leave and rejoin
	f.Add([]byte{0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0})                     // all-to-all, every member leaves
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 2, 0, 13, 7, 0, 5, 0, 1, 13, 0, 0, 8, 8}) // NaN start and prob: rejected
	f.Add([]byte{2, 0, 3, 0, 0, 0, 0, 1, 0, 9, 0, 0, 5, 0})                     // crash on worker 9 of 4: rejected
	f.Add([]byte{6, 2, 3, 1, 0, 2, 0, 0})                                       // a 4-wide arch on 5-wide data: Train rejects it
	f.Add([]byte{6, 0, 3, 1, 0, 0, 4, 0})                                       // a 2-class arch on 3-class labels: Train rejects it
	f.Add([]byte{4, 0, 3, 2, 0, 9, 0, 0})                                       // no hidden layer, Local SGD
	f.Add([]byte{6, 2, 3, 3, 0, 16, 1, 1, 11, 13, 0, 0, 3, 0})                  // two hidden layers, median, link drops on a ring
	f.Add([]byte{4, 0, 3, 4, 0, 24, 0, 0})                                      // hidden width −2: rejected
	f.Add([]byte{6, 2, 3, 1, 0, 0, 0, 1, 2, 1, 0, 0, 5, 0})                     // drop on worker 1 of a ring, never drawn: rejected
	f.Add([]byte{6, 1, 3, 1, 0, 0, 0, 1, 3, 2, 0, 0, 3, 0})                     // corrupt on worker 2 of all-to-all, never drawn: rejected
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := decodeCollectiveConfig(in)
		if cfg.Validate() != nil {
			return
		}
		h := obs.NewHandle()
		cfg.Obs = h
		_, stats, err := Train(int64(len(in)), ds.X, y, cfg)
		var ce *invalid.Error
		if err != nil && errors.As(err, &ce) &&
			(ce.Field == "Arch.In" && cfg.Arch.In != 5 || ce.Field == "Arch.Out" && cfg.Arch.Out != 3) {
			return
		}
		if err != nil {
			t.Fatalf("Train rejected a config Validate accepted: %v (%+v)", err, cfg)
		}
		if err := stats.Reconcile(h); err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
	})
}
