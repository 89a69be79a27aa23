package core

import (
	"fmt"
	"math"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
)

// X9 studies Byzantine-robust distributed training: an aggregator × attack
// matrix with 1 of 8 workers adversarial. The attacks (sign-flip, scale,
// stealthy drift, coordinated collusion) are all finite-valued, so they
// slip past the numerical guards of X6 — the plain mean diverges under
// every one of them, while coordinate median, trimmed mean, and Krum stay
// within a small factor of the attack-free loss. Norm clipping is the
// cautionary tale: its clip threshold is the mean participant norm, which
// the adversary inflates, so it fails under the amplified sign-flip. A
// reputation tracker (EMA of distance-to-aggregate) quarantines exactly
// the true offender with zero false positives on attack-free runs, and the
// whole scenario — metrics, traces, quarantine ledger — replays
// bit-identically under the same seed.

func init() {
	register(Experiment{
		ID: "X9", Section: "3",
		Title: "Byzantine-robust distributed training",
		Claim: "With 1 of 8 workers adversarial, mean aggregation diverges under every finite-valued attack while coordinate median, trimmed mean, and Krum stay near the attack-free loss; reputation-based quarantine identifies exactly the true offenders; runs replay bit-identically",
		Run:   runX9,
	})
}

// x9LossFloor keeps vs_clean ratios meaningful when the attack-free loss
// is very small.
const x9LossFloor = 0.02

func runX9(scale Scale) *Table {
	n, epochs := 480, 8
	if scale == Full {
		n, epochs = 1600, 16
	}
	rng := rand.New(rand.NewSource(190))
	ds := data.GaussianMixture(rng, n, 6, 3, 3.2)
	train, test := ds.Split(rng, 0.8)
	y := nn.OneHot(train.Labels, 3)
	testY := nn.OneHot(test.Labels, 3)
	arch := nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3}

	const adversary = 7 // worker 0 stays honest: it reports EpochLoss

	attacks := []struct {
		name string
		kind fault.Kind
	}{
		{"none", 0},
		{"sign-flip", fault.KindSignFlip},
		{"scale-attack", fault.KindScaleAttack},
		{"drift-attack", fault.KindDriftAttack},
		{"collude", fault.KindCollude},
	}
	aggregators := []robust.Aggregator{
		robust.Mean{}, robust.CoordMedian{}, robust.TrimmedMean{Trim: 1},
		robust.Krum{F: 1}, robust.NormClip{},
	}

	base := func(kind fault.Kind, agg robust.Aggregator, rep *robust.ReputationConfig) distributed.Config {
		cfg := distributed.Config{
			Workers: 8, Arch: arch, Epochs: epochs, BatchSize: 16, LR: 0.1,
			AveragePeriod: 1, Aggregator: agg, Reputation: rep,
		}
		if kind != 0 {
			cfg.Fault = fault.Byzantine(192, kind, adversary)
			// Amplify the scale and drift attacks past the point a 1/8
			// dilution absorbs: at the defaults the mean merely takes a
			// large-but-stable step, which understates the threat the
			// robust rules are defending against.
			switch kind {
			case fault.KindScaleAttack:
				cfg.Fault.Schedule[0].Factor = 1e4
			case fault.KindDriftAttack:
				cfg.Fault.Schedule[0].Factor = 6
			}
		}
		return cfg
	}
	// heldOut scores the trained model on clean held-out data; a wrecked
	// model shows up as a large or non-finite loss.
	heldOut := func(net *nn.Network) float64 {
		tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(0), rand.New(rand.NewSource(1)))
		return tr.ComputeGrad(test.X, testY)
	}

	t := &Table{ID: "X9", Title: "Byzantine-robust distributed training",
		Claim:   "mean diverges under every attack at f=1/8; median/trimmed/krum stay near attack-free; normclip fails under sign-flip; quarantine names exactly the offender; runs replay bit-identically",
		Columns: []string{"aggregator", "attack", "loss", "vs_clean", "acc", "quar", "offenders", "fingerprint", "agg_s", "sim_s"}}

	// Phase 1: aggregator × attack matrix, no reputation tracker — the
	// aggregation rule alone carries the defence.
	for _, agg := range aggregators {
		var clean float64
		for _, atk := range attacks {
			net, stats, err := distributed.Train(191, train.X, y, base(atk.kind, agg, nil))
			if err != nil {
				t.AddRow(agg.Name(), atk.name, "err", err.Error(), "-", "-", "-", "-", "-", "-")
				continue
			}
			loss := heldOut(net)
			if atk.name == "none" {
				clean = math.Max(loss, x9LossFloor)
			}
			ratio := loss / clean
			vs := fmt.Sprintf("%.4g", ratio)
			if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
				vs = "inf"
			}
			t.AddRow(agg.Name(), atk.name, loss, vs,
				net.Accuracy(test.X, test.Labels), "-", "-", "-",
				fmt.Sprintf("%.8g", stats.AggSeconds),
				fmt.Sprintf("%.8g", stats.SimSeconds))
		}
	}

	// Phase 2: reputation-based quarantine under coordinate median. The
	// ledger must name exactly the adversary under every attack kind, and
	// nobody on the attack-free run.
	for _, atk := range attacks {
		_, stats, err := distributed.Train(191, train.X, y, base(atk.kind, robust.CoordMedian{}, &robust.ReputationConfig{}))
		label := "rep/coordmedian"
		if err != nil {
			t.AddRow(label, atk.name, "err", err.Error(), "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(label, atk.name, "-", "-", "-",
			stats.Quarantines, stats.Quarantine.OffenderString(),
			fmt.Sprintf("%016x", stats.Quarantine.Fingerprint()), "-", "-")
	}

	// Phase 3: replay determinism. The same instrumented scenario runs
	// twice; metric, trace, and ledger fingerprints must all match.
	for i := 1; i <= 2; i++ {
		h := obs.NewHandle()
		cfg := base(fault.KindSignFlip, robust.CoordMedian{}, &robust.ReputationConfig{})
		cfg.Obs = h
		_, stats, err := distributed.Train(191, train.X, y, cfg)
		label := fmt.Sprintf("replay/%d", i)
		if err != nil {
			t.AddRow(label, "sign-flip", "err", err.Error(), "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(label, "sign-flip", "-", "-", "-",
			stats.Quarantines, stats.Quarantine.OffenderString(),
			fmt.Sprintf("%016x:%016x:%016x",
				h.Reg.Fingerprint(), h.Tracer.Fingerprint(), stats.Quarantine.Fingerprint()),
			"-", "-")
	}

	t.Shape = "mean's vs_clean exceeds 3x (or inf) under every attack; coordmedian, trimmed, and krum stay within 1.5x; normclip exceeds 1.5x under sign-flip; quarantine offenders are exactly the adversary with none on attack-free runs; both replay fingerprints match; robust sim_s stays within a small factor of mean's"
	return t
}
