package distributed

import (
	"math"
	"testing"

	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// numericalCfg configures sync training under numerical faults (poisoned
// batches and shuffled labels) with the given guard mode: the batch-corrupt
// and label-noise windows of fault.NumericalRate. Its lr-spike window is
// left out, since only guard.Fit reads it and Validate rejects it here.
func numericalCfg(rate float64, mode guard.Mode) Config {
	return Config{
		Workers: 4, Arch: distArch, Epochs: 12, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1,
		Fault: fault.Config{Seed: 33, Schedule: []fault.Window{
			{Kind: fault.KindBatchCorrupt, Prob: rate},
			{Kind: fault.KindLabelNoise, Prob: rate / 2},
		}},
		Guard: &guard.Policy{Mode: mode},
	}
}

// Unguarded (Observe) training under NaN batch corruption must end with a
// poisoned model, while the same scenario with the guard enforcing ends
// finite and accurate — the aggregation screen is doing real work.
func TestGuardScreensPoisonedGradients(t *testing.T) {
	train, test := distDataset(31)
	y := nn.OneHot(train.Labels, 3)

	netObs, statsObs := mustTrain(t, 90, train.X, y, numericalCfg(0.15, guard.Observe))
	if statsObs.NumericalFaults == 0 {
		t.Fatal("injector fired no numerical faults at rate 0.15")
	}
	if tensor.AllFinite(netObs.ParamVector()) {
		t.Fatal("observe-mode training should have been poisoned by NaN batches")
	}

	netEnf, statsEnf := mustTrain(t, 90, train.X, y, numericalCfg(0.15, guard.Enforce))
	if statsEnf.GuardSkipped == 0 {
		t.Fatal("guard skipped nothing despite injected faults")
	}
	if !tensor.AllFinite(netEnf.ParamVector()) {
		t.Fatal("guarded training left non-finite parameters")
	}
	if acc := netEnf.Accuracy(test.X, test.Labels); acc < 0.8 {
		t.Fatalf("guarded accuracy %.3f under numerical faults", acc)
	}
}

// The guarded run must be bit-reproducible: same seeds → same counters and
// same final parameters, despite concurrent workers and injected faults.
func TestGuardedRunDeterministic(t *testing.T) {
	train, _ := distDataset(32)
	y := nn.OneHot(train.Labels, 3)
	netA, statsA := mustTrain(t, 91, train.X, y, numericalCfg(0.2, guard.Enforce))
	netB, statsB := mustTrain(t, 91, train.X, y, numericalCfg(0.2, guard.Enforce))
	if statsA.NumericalFaults != statsB.NumericalFaults || statsA.GuardSkipped != statsB.GuardSkipped {
		t.Fatalf("guard counters differ across identical runs: %+v vs %+v", statsA, statsB)
	}
	a, b := netA.ParamVector(), netB.ParamVector()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("guarded params differ at %d", i)
		}
	}
}

// Local SGD regime: poisoned local updates are healed by snapshot restore.
func TestLocalSGDGuardRestoresPoisonedWorkers(t *testing.T) {
	train, _ := distDataset(33)
	y := nn.OneHot(train.Labels, 3)
	cfg := numericalCfg(0.2, guard.Enforce)
	cfg.AveragePeriod = 4
	cfg.SnapshotPeriod = 1
	net, stats := mustTrain(t, 92, train.X, y, cfg)
	if stats.NumericalFaults == 0 {
		t.Fatal("no numerical faults fired")
	}
	if stats.GuardRestores == 0 {
		t.Fatal("no poisoned worker was restored in the Local SGD regime")
	}
	if !tensor.AllFinite(net.ParamVector()) {
		t.Fatal("guarded Local SGD left non-finite parameters")
	}
}
