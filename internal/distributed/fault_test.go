package distributed

import (
	"math"
	"testing"

	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
)

// faultCfg is the shared fault-injected training configuration used by the
// determinism and recovery tests: fault rate 0.2 with crashes, stragglers,
// drops, and corruption all enabled.
func faultCfg(rate float64) Config {
	return Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1, Fault: fault.Rate(123, rate), SnapshotPeriod: 3,
	}
}

// Same seed → identical Stats (bytes, retries, crash/rejoin counts) and an
// identical final parameter vector, even though workers execute in
// parallel goroutines and faults reorder who does what when.
func TestFaultScheduleDeterministic(t *testing.T) {
	train, _ := distDataset(8)
	y := nn.OneHot(train.Labels, 3)
	netA, statsA := mustTrain(t, 80, train.X, y, faultCfg(0.2))
	netB, statsB := mustTrain(t, 80, train.X, y, faultCfg(0.2))
	if statsA.BytesSent != statsB.BytesSent ||
		statsA.Retransmissions != statsB.Retransmissions ||
		statsA.DroppedMessages != statsB.DroppedMessages ||
		statsA.Corruptions != statsB.Corruptions ||
		statsA.Crashes != statsB.Crashes ||
		statsA.Rejoins != statsB.Rejoins ||
		statsA.Restores != statsB.Restores ||
		statsA.Snapshots != statsB.Snapshots ||
		statsA.Timeouts != statsB.Timeouts ||
		statsA.SimSeconds != statsB.SimSeconds {
		t.Fatalf("same seed produced different stats:\nA: %+v\nB: %+v", statsA, statsB)
	}
	a, b := netA.ParamVector(), netB.ParamVector()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different params at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestDifferentFaultSeedsDiverge(t *testing.T) {
	train, _ := distDataset(8)
	y := nn.OneHot(train.Labels, 3)
	cfgA := faultCfg(0.2)
	cfgB := faultCfg(0.2)
	cfgB.Fault.Seed = 456
	_, statsA := mustTrain(t, 80, train.X, y, cfgA)
	_, statsB := mustTrain(t, 80, train.X, y, cfgB)
	if statsA.BytesSent == statsB.BytesSent && statsA.Crashes == statsB.Crashes &&
		statsA.Retransmissions == statsB.Retransmissions {
		t.Fatal("different fault seeds produced identical fault traces")
	}
}

// At fault rate 0.2 with crashes and recovery enabled, accuracy must stay
// within 3 points of the fault-free run while the stats show the fault
// machinery actually exercised: retransmissions happened and at least one
// crashed worker restored a snapshot.
func TestRecoveryStaysInAccuracyBand(t *testing.T) {
	train, test := distDataset(9)
	y := nn.OneHot(train.Labels, 3)

	clean := faultCfg(0)
	clean.Fault = fault.Config{}
	netClean, statsClean := mustTrain(t, 90, train.X, y, clean)
	accClean := netClean.Accuracy(test.X, test.Labels)

	netF, statsF := mustTrain(t, 90, train.X, y, faultCfg(0.2))
	accF := netF.Accuracy(test.X, test.Labels)

	t.Logf("fault-free %.3f vs faulty %.3f; stats %+v", accClean, accF, statsF)
	if accClean-accF > 0.03 {
		t.Fatalf("faulty accuracy %.3f more than 3 points below fault-free %.3f", accF, accClean)
	}
	if statsF.Retransmissions == 0 {
		t.Fatal("no retransmissions at 20% message loss")
	}
	if statsF.Crashes == 0 || statsF.Restores == 0 {
		t.Fatalf("expected crashes and snapshot restores: %+v", statsF)
	}
	if statsF.BytesSent <= statsClean.BytesSent {
		t.Fatalf("retransmissions should cost bytes: faulty %d <= clean %d",
			statsF.BytesSent, statsClean.BytesSent)
	}
	if statsF.SimSeconds <= statsClean.SimSeconds {
		t.Fatalf("faults should cost simulated time: %.6f <= %.6f",
			statsF.SimSeconds, statsClean.SimSeconds)
	}
}

// Local SGD must survive the same fault regime: model averaging heals
// post-crash drift because every live worker receives the average.
func TestLocalSGDSurvivesFaults(t *testing.T) {
	train, test := distDataset(10)
	y := nn.OneHot(train.Labels, 3)
	cfg := faultCfg(0.2)
	cfg.AveragePeriod = 4
	net, stats := mustTrain(t, 100, train.X, y, cfg)
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.8 {
		t.Fatalf("local SGD under faults accuracy %.3f", acc)
	}
	if stats.Crashes == 0 {
		t.Fatal("fault schedule produced no crashes over 15 epochs")
	}
}

// Drop-slowest-k bounds the simulated round time under stragglers: with
// mitigation on, the run should finish faster on the simulated clock than
// the same run that waits for every straggler.
func TestDropSlowestKMitigatesStragglers(t *testing.T) {
	train, test := distDataset(11)
	y := nn.OneHot(train.Labels, 3)
	straggly := Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1, AveragePeriod: 1,
		Fault: fault.Config{Seed: 7, Schedule: []fault.Window{{Kind: fault.KindStraggle, Prob: 0.3, Factor: 20}}},
	}
	_, waitAll := mustTrain(t, 110, train.X, y, straggly)

	mitigated := straggly
	mitigated.DropSlowestK = 1
	netM, dropK := mustTrain(t, 110, train.X, y, mitigated)

	if waitAll.StragglerRounds == 0 {
		t.Fatal("no straggler rounds at 30% straggle probability")
	}
	if dropK.ExcludedSlow == 0 {
		t.Fatal("mitigation excluded nobody")
	}
	if dropK.SimSeconds >= waitAll.SimSeconds {
		t.Fatalf("drop-slowest-1 should cut simulated time: %.6f >= %.6f",
			dropK.SimSeconds, waitAll.SimSeconds)
	}
	if acc := netM.Accuracy(test.X, test.Labels); acc < 0.8 {
		t.Fatalf("mitigated run accuracy %.3f", acc)
	}
}

// Crash-at-step-k recovery: a run with exactly one injected crash must
// converge to the same accuracy band as the uninterrupted run (the
// snapshot round-trip satellite requirement, exercised end to end).
func TestCrashRecoveryConvergesToSameBand(t *testing.T) {
	train, test := distDataset(12)
	y := nn.OneHot(train.Labels, 3)
	clean := Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1, AveragePeriod: 1,
	}
	netClean, _ := mustTrain(t, 120, train.X, y, clean)
	accClean := netClean.Accuracy(test.X, test.Labels)

	crashy := clean
	crashy.Fault = fault.Config{Seed: 31, RestartDelay: 4, Schedule: []fault.Window{{Kind: fault.KindCrash, Prob: 0.02}}}
	crashy.SnapshotPeriod = 2
	netC, stats := mustTrain(t, 120, train.X, y, crashy)
	accC := netC.Accuracy(test.X, test.Labels)
	if stats.Crashes == 0 || stats.Restores == 0 {
		t.Fatalf("crash schedule did not fire: %+v", stats)
	}
	if math.Abs(accClean-accC) > 0.03 {
		t.Fatalf("crash-recovery accuracy %.3f vs uninterrupted %.3f: outside 3-point band", accC, accClean)
	}
}

// The retry transport must deliver deterministically and account every
// attempt's bytes.
func TestTransportRetryAccounting(t *testing.T) {
	var stats Stats
	tr := &transport{
		inj:        fault.NewInjector(fault.Config{Seed: 5, Schedule: []fault.Window{{Kind: fault.KindDrop, Prob: 0.5}}}),
		prof:       device.GPUSmall,
		maxRetries: 8,
		backoffS:   1e-3,
		obs:        newDistObs(nil, 0),
	}
	delivered := 0
	for msg := 0; msg < 200; msg++ {
		ok, elapsed := tr.send(0, msg, 1000, &stats)
		if elapsed <= 0 {
			t.Fatal("send took no simulated time")
		}
		if ok {
			delivered++
		}
	}
	if delivered < 190 {
		t.Fatalf("only %d/200 delivered with 8 retries at 50%% loss", delivered)
	}
	if stats.Retransmissions == 0 || stats.DroppedMessages == 0 {
		t.Fatalf("retry accounting empty: %+v", stats)
	}
	attempts := int64(200 + stats.Retransmissions)
	if stats.BytesSent != attempts*1000 {
		t.Fatalf("bytes %d != attempts %d x 1000 (every attempt must be accounted)", stats.BytesSent, attempts)
	}
}
