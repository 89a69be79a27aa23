// Byzantine: robust aggregation against adversarial workers. Eight workers
// train the same model with worker 7 Byzantine — its uploads are finite
// (sign-flipped, rescaled, biased, or coordinated with label shuffles), so
// they sail past numerical guards. Plain mean aggregation is wrecked by
// every attack; coordinate median, trimmed mean, and Krum shrug them off. A
// reputation tracker (EMA of each worker's distance to the aggregate)
// quarantines exactly the true offender and records a replayable ledger; a
// final section runs the same scenario twice to show the quarantine
// fingerprint is deterministic.
package main

import (
	"fmt"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
	"dlsys/internal/robust"
)

const adversary = 7

// run trains 8 workers with the given attack and aggregation rule,
// returning the clean held-out loss and accuracy plus the training stats
// (which carry the quarantine ledger when a reputation tracker is set).
func run(train, test *data.Dataset, kind fault.Kind, agg robust.Aggregator, rep *robust.ReputationConfig) (float64, float64, distributed.Stats) {
	cfg := distributed.Config{
		Workers: 8, Arch: nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3},
		Epochs: 8, BatchSize: 16, LR: 0.1, AveragePeriod: 1,
		Aggregator: agg, Reputation: rep,
	}
	if kind != 0 {
		cfg.Fault = fault.Byzantine(192, kind, adversary)
		switch kind {
		case fault.KindScaleAttack:
			cfg.Fault.Schedule[0].Factor = 1e4
		case fault.KindDriftAttack:
			cfg.Fault.Schedule[0].Factor = 6
		}
	}
	net, stats, err := distributed.Train(191, train.X, nn.OneHot(train.Labels, 3), cfg)
	if err != nil {
		fmt.Println("ERROR:", err)
		return 0, 0, stats
	}
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(0), rand.New(rand.NewSource(1)))
	loss := tr.ComputeGrad(test.X, nn.OneHot(test.Labels, 3))
	return loss, net.Accuracy(test.X, test.Labels), stats
}

func main() {
	rng := rand.New(rand.NewSource(190))
	ds := data.GaussianMixture(rng, 480, 6, 3, 3.2)
	train, test := ds.Split(rng, 0.8)

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

	fmt.Println("aggregator x attack: clean held-out loss (accuracy)")
	for _, agg := range []robust.Aggregator{robust.Mean{}, robust.CoordMedian{}, robust.TrimmedMean{Trim: 1}, robust.Krum{F: 1}} {
		fmt.Printf("  %-12s", agg.Name())
		for _, atk := range attacks {
			loss, acc, _ := run(train, test, atk.kind, agg, nil)
			fmt.Printf("  %s %.3g (%.2f)", atk.name, loss, acc)
		}
		fmt.Println()
	}

	fmt.Println("\nreputation-based quarantine under coordinate median:")
	for _, atk := range attacks {
		_, _, stats := run(train, test, atk.kind, robust.CoordMedian{}, &robust.ReputationConfig{})
		fmt.Printf("  %-12s  quarantines %d  readmissions %d  offenders [%s]\n",
			atk.name, stats.Quarantines, stats.Readmissions, stats.Quarantine.OffenderString())
	}

	fmt.Println("\nreplay: same seed, same attack, twice:")
	_, _, s1 := run(train, test, fault.KindSignFlip, robust.CoordMedian{}, &robust.ReputationConfig{})
	_, _, s2 := run(train, test, fault.KindSignFlip, robust.CoordMedian{}, &robust.ReputationConfig{})
	fmt.Printf("  ledger fingerprint %016x, replayed %016x, identical: %v\n",
		s1.Quarantine.Fingerprint(), s2.Quarantine.Fingerprint(),
		s1.Quarantine.Fingerprint() == s2.Quarantine.Fingerprint())
}
