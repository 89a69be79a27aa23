package distributed

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dlsys/internal/fault"
	"dlsys/internal/invalid"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
)

// byzCfg is an 8-worker synchronous run with one sign-flipping adversary.
func byzCfg(workers int, agg robust.Aggregator, rep *robust.ReputationConfig) Config {
	return Config{
		Workers: workers, Arch: distArch, Epochs: 4, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1,
		Fault:         fault.Byzantine(40, fault.KindSignFlip, 1),
		Aggregator:    agg,
		Reputation:    rep,
	}
}

func TestConfigValidateTable(t *testing.T) {
	base := Config{Workers: 4, Arch: distArch, Epochs: 1, BatchSize: 16, LR: 0.1}
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string // "" means valid
	}{
		{"valid", func(c *Config) {}, ""},
		{"zero-values-mean-defaults", func(c *Config) { c.AveragePeriod, c.TopK, c.MaxRetries = 0, 0, 0 }, ""},
		{"workers-zero", func(c *Config) { c.Workers = 0 }, "Workers"},
		{"workers-negative", func(c *Config) { c.Workers = -3 }, "Workers"},
		{"epochs-negative", func(c *Config) { c.Epochs = -1 }, "Epochs"},
		{"batch-zero", func(c *Config) { c.BatchSize = 0 }, "BatchSize"},
		{"lr-negative", func(c *Config) { c.LR = -0.1 }, "LR"},
		{"period-negative", func(c *Config) { c.AveragePeriod = -2 }, "AveragePeriod"},
		{"topk-negative", func(c *Config) { c.TopK = -0.5 }, "TopK"},
		{"quant-negative", func(c *Config) { c.QuantBits = -4 }, "QuantBits"},
		{"retries-negative", func(c *Config) { c.MaxRetries = -1 }, "MaxRetries"},
		// Attempt 64's backoff term is retryBackoff·(int64(1)<<63) < 0,
		// which would cancel every earlier backoff; 64 retries stop short.
		{"retries-64", func(c *Config) { c.MaxRetries = 64 }, ""},
		{"retries-65", func(c *Config) { c.MaxRetries = 65 }, "MaxRetries"},
		{"snapshot-negative", func(c *Config) { c.SnapshotPeriod = -5 }, "SnapshotPeriod"},
		{"dropk-equals-workers", func(c *Config) { c.DropSlowestK = 4 }, "DropSlowestK"},
		{"dropk-negative", func(c *Config) { c.DropSlowestK = -1 }, "DropSlowestK"},
		{"reputation-decay", func(c *Config) { c.Reputation = &robust.ReputationConfig{Decay: 1.5} }, "Reputation.Decay"},
		{"reputation-threshold", func(c *Config) { c.Reputation = &robust.ReputationConfig{Threshold: -1} }, "Reputation.Threshold"},
		{"reputation-patience", func(c *Config) { c.Reputation = &robust.ReputationConfig{Patience: -1} }, "Reputation.Patience"},
		{"reputation-probation", func(c *Config) { c.Reputation = &robust.ReputationConfig{Probation: -1} }, "Reputation.Probation"},
		{"byzantine-worker-out-of-range", func(c *Config) { c.Fault = fault.Byzantine(1, fault.KindSignFlip, 9) }, "Fault.Schedule[0].Workers"},
		// A window naming a worker the job lacks would never fire.
		{"crash-window-worker-out-of-range", func(c *Config) {
			c.Fault = fault.Config{Schedule: []fault.Window{
				{Kind: fault.KindDrop, Prob: 0.1}, {Kind: fault.KindCrash, Workers: []int{1, 9}, Prob: 1}}}
		}, "Fault.Schedule[1].Workers"},
		// A collective draws no worker messages: it never draws Drops and
		// draws Corrupts only for snapshots (worker −1), so a message
		// window listing workers never fires there. On the star it does.
		{"drop-window-workers-on-ring", func(c *Config) {
			c.Topology = TopoRing
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindDrop, Workers: []int{1}, Prob: 0.5}}}
		}, "Fault.Schedule[0].Workers"},
		{"corrupt-window-workers-on-hier", func(c *Config) {
			c.Topology = TopoHier
			c.Fault = fault.Config{Schedule: []fault.Window{
				{Kind: fault.KindCrash, Workers: []int{2}, Prob: 0.1}, {Kind: fault.KindCorrupt, Workers: []int{0, 3}, Prob: 0.5}}}
		}, "Fault.Schedule[1].Workers"},
		{"empty-worker-list-drop-window-on-tree", func(c *Config) {
			c.Topology = TopoTree
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindDrop, Workers: []int{}, Prob: 0.5}}}
		}, "Fault.Schedule[0].Workers"},
		{"drop-window-workers-on-star", func(c *Config) {
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindDrop, Workers: []int{1}, Prob: 0.5}}}
		}, ""},
		{"corrupt-window-workers-on-star", func(c *Config) {
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindCorrupt, Workers: []int{1}, Prob: 0.5}}}
		}, ""},
		{"workerless-corrupt-window-on-all-to-all", func(c *Config) {
			c.Topology = TopoAllToAll
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindCorrupt, Prob: 0.5}}}
		}, ""},
		{"crash-window-workers-on-ring", func(c *Config) {
			c.Topology = TopoRing
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindCrash, Workers: []int{1}, Prob: 0.5}}}
		}, ""},
		// No training path draws these kinds: only guard.Fit reads an
		// lr-spike, and only serve draws the other three.
		{"lr-spike-window", func(c *Config) {
			c.Fault = fault.Config{Schedule: []fault.Window{
				{Kind: fault.KindDrop, Prob: 0.1}, {Kind: fault.KindLRSpike, Prob: 0.2, Factor: 1e4}}}
		}, "Fault.Schedule[1].Kind"},
		{"arrival-window", func(c *Config) {
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindArrival, Prob: 1, Factor: 4}}}
		}, "Fault.Schedule[0].Kind"},
		{"retry-storm-window", func(c *Config) {
			c.Topology = TopoRing
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindRetryStorm, Prob: 1, Factor: 8}}}
		}, "Fault.Schedule[0].Kind"},
		{"brownout-window", func(c *Config) {
			c.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindBrownout, Workers: []int{2}, Prob: 1, Factor: 3}}}
		}, "Fault.Schedule[0].Kind"},
		// NaN and ±Inf slip past every range comparison, so each float
		// field is checked for them explicitly.
		{"lr-nan", func(c *Config) { c.LR = math.NaN() }, "LR"},
		{"lr-inf", func(c *Config) { c.LR = math.Inf(1) }, "LR"},
		{"topk-nan", func(c *Config) { c.TopK = math.NaN() }, "TopK"},
		{"topk-inf", func(c *Config) { c.TopK = math.Inf(1) }, "TopK"},
		{"reputation-decay-nan", func(c *Config) { c.Reputation = &robust.ReputationConfig{Decay: math.NaN()} }, "Reputation.Decay"},
		{"reputation-threshold-nan", func(c *Config) { c.Reputation = &robust.ReputationConfig{Threshold: math.NaN()} }, "Reputation.Threshold"},
		{"reputation-threshold-inf", func(c *Config) { c.Reputation = &robust.ReputationConfig{Threshold: math.Inf(1)} }, "Reputation.Threshold"},
		// nn.NewMLP panics on an arch its Validate rejects.
		{"arch-zero", func(c *Config) { c.Arch = nn.MLPConfig{} }, "Arch"},
		{"arch-in-negative", func(c *Config) { c.Arch.In = -5 }, "Arch"},
		{"arch-hidden-zero", func(c *Config) { c.Arch.Hidden = []int{24, 0} }, "Arch"},
		{"arch-out-zero", func(c *Config) { c.Arch.Out = 0 }, "Arch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			var ce *invalid.Error
			if !errors.As(err, &ce) {
				t.Fatalf("want *invalid.Error, got %v (%T)", err, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("Field = %q, want %q (err: %v)", ce.Field, tc.field, err)
			}
		})
	}
	// Fault-config errors pass through Validate untyped but non-nil.
	bad := base
	bad.Fault = fault.Config{Schedule: []fault.Window{{Kind: fault.KindDrop, Prob: 1.5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range fault probability accepted")
	}
}

// TestByzantineReplaysBitIdentically is the cross-worker-count determinism
// regression: with Byzantine faults, robust aggregation, and reputation
// tracking all enabled, the same seed replays bit-identically — same
// Stats, same epoch losses, same parameters, same ledger fingerprint — at
// both 4 and 8 workers, each run twice.
func TestByzantineReplaysBitIdentically(t *testing.T) {
	train, _ := distDataset(12)
	y := nn.OneHot(train.Labels, 3)
	for _, workers := range []int{4, 8} {
		cfg := byzCfg(workers, robust.CoordMedian{}, &robust.ReputationConfig{})
		netA, statsA := mustTrain(t, 120, train.X, y, cfg)
		netB, statsB := mustTrain(t, 120, train.X, y, cfg)
		if statsA.ByzantineAttacks == 0 {
			t.Fatalf("workers=%d: no Byzantine attacks fired", workers)
		}
		if statsA.ByzantineAttacks != statsB.ByzantineAttacks ||
			statsA.Quarantines != statsB.Quarantines ||
			statsA.QuarantineExcluded != statsB.QuarantineExcluded ||
			statsA.Readmissions != statsB.Readmissions ||
			statsA.BytesSent != statsB.BytesSent ||
			statsA.Steps != statsB.Steps ||
			statsA.SimSeconds != statsB.SimSeconds {
			t.Fatalf("workers=%d: stats diverged:\nA: %+v\nB: %+v", workers, statsA, statsB)
		}
		for i := range statsA.EpochLoss {
			la, lb := statsA.EpochLoss[i], statsB.EpochLoss[i]
			if la != lb && !(math.IsNaN(la) && math.IsNaN(lb)) {
				t.Fatalf("workers=%d: epoch %d loss %v != %v", workers, i, la, lb)
			}
		}
		if statsA.Quarantine.Fingerprint() != statsB.Quarantine.Fingerprint() {
			t.Fatalf("workers=%d: ledger fingerprints diverged", workers)
		}
		pa, pb := netA.ParamVector(), netB.ParamVector()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("workers=%d: params diverged at %d", workers, i)
			}
		}
	}
}

func TestRobustAggregationDefendsSignFlip(t *testing.T) {
	train, test := distDataset(13)
	y := nn.OneHot(train.Labels, 3)
	cleanNet, _ := mustTrain(t, 130, train.X, y, byzCfg(8, nil, nil))
	_ = cleanNet
	meanNet, meanStats := mustTrain(t, 130, train.X, y, func() Config {
		c := byzCfg(8, robust.Mean{}, nil)
		return c
	}())
	medNet, _ := mustTrain(t, 130, train.X, y, byzCfg(8, robust.CoordMedian{}, nil))
	if meanStats.ByzantineAttacks == 0 {
		t.Fatal("adversary never fired")
	}
	meanAcc := meanNet.Accuracy(test.X, test.Labels)
	medAcc := medNet.Accuracy(test.X, test.Labels)
	if medAcc < 0.8 {
		t.Fatalf("coordinate median failed to defend: acc %.3f", medAcc)
	}
	if meanAcc >= medAcc {
		t.Fatalf("mean (%.3f) should be hurt more than median (%.3f) by sign-flip", meanAcc, medAcc)
	}
}

func TestReputationQuarantinesAdversaryInTrain(t *testing.T) {
	train, _ := distDataset(14)
	y := nn.OneHot(train.Labels, 3)
	_, stats := mustTrain(t, 140, train.X, y, byzCfg(8, robust.CoordMedian{}, &robust.ReputationConfig{}))
	if stats.Quarantine == nil {
		t.Fatal("no quarantine ledger attached to stats")
	}
	if got := stats.Quarantine.OffenderString(); got != "1" {
		t.Fatalf("offenders = %q, want exactly the adversary \"1\"", got)
	}
	if stats.QuarantineExcluded == 0 {
		t.Fatal("quarantined adversary was never excluded from a round")
	}
	// Attack-free control: zero quarantines, zero false positives.
	clean := byzCfg(8, robust.CoordMedian{}, &robust.ReputationConfig{})
	clean.Fault = fault.Config{}
	_, cleanStats := mustTrain(t, 140, train.X, y, clean)
	if cleanStats.Quarantines != 0 || cleanStats.Quarantine.OffenderString() != "" {
		t.Fatalf("attack-free run quarantined workers: %+v", cleanStats.Quarantine.Offenders())
	}
}

func TestLocalSGDByzantineQuarantine(t *testing.T) {
	train, _ := distDataset(15)
	y := nn.OneHot(train.Labels, 3)
	cfg := byzCfg(4, robust.CoordMedian{}, &robust.ReputationConfig{Probation: 4})
	cfg.AveragePeriod = 2
	cfg.Epochs = 10
	cfg.Obs = obs.NewHandle()
	_, stats := mustTrain(t, 150, train.X, y, cfg)
	if stats.ByzantineAttacks == 0 {
		t.Fatal("Local SGD regime: adversary never corrupted an upload")
	}
	if got := stats.Quarantine.OffenderString(); got != "1" {
		t.Fatalf("offenders = %q, want \"1\"", got)
	}
	if stats.Readmissions == 0 {
		t.Fatal("probation never expired — readmission path untested")
	}
	// The Byzantine and reputation counters reconcile with Stats, and one
	// extra increment is named.
	if err := stats.Reconcile(cfg.Obs); err != nil {
		t.Fatal(err)
	}
	cfg.Obs.Counter("distributed.readmissions").Inc()
	if err := stats.Reconcile(cfg.Obs); err == nil || !strings.Contains(err.Error(), "distributed.readmissions=") {
		t.Fatalf("a bumped distributed.readmissions was not named: %v", err)
	}
}

func TestCompressGradientEdgeCases(t *testing.T) {
	mk := func() []float64 { return []float64{4, -3, 2, -1, 0.5, 0.25} }

	t.Run("topk-zero-is-dense", func(t *testing.T) {
		g := mk()
		bytes := compressGradient(g, nil, 0, 0)
		if bytes != int64(len(g))*wireBytesPerFloat {
			t.Fatalf("topK=0 bytes = %d, want dense %d", bytes, int64(len(g))*wireBytesPerFloat)
		}
		for i, v := range g {
			if v != mk()[i] {
				t.Fatalf("dense path mutated g[%d]", i)
			}
		}
	})

	t.Run("topk-negative-is-dense", func(t *testing.T) {
		g := mk()
		if bytes := compressGradient(g, nil, -0.5, 0); bytes != int64(len(g))*wireBytesPerFloat {
			t.Fatalf("negative topK not clamped to dense: %d bytes", bytes)
		}
	})

	t.Run("topk-above-one-is-dense", func(t *testing.T) {
		g := mk()
		if bytes := compressGradient(g, nil, 1.5, 0); bytes != int64(len(g))*wireBytesPerFloat {
			t.Fatalf("topK>1 not clamped to dense: %d bytes", bytes)
		}
	})

	t.Run("topk-keeps-largest", func(t *testing.T) {
		g := mk()
		residual := make([]float64, len(g))
		compressGradient(g, residual, 0.34, 0) // k = 2 of 6
		if g[0] != 4 || g[1] != -3 {
			t.Fatalf("largest coordinates not kept: %v", g)
		}
		for i := 2; i < len(g); i++ {
			if g[i] != 0 {
				t.Fatalf("coordinate %d not dropped: %v", i, g)
			}
			if residual[i] != mk()[i] {
				t.Fatalf("dropped coordinate %d not parked in residual", i)
			}
		}
	})

	t.Run("bits-negative-disables", func(t *testing.T) {
		g := mk()
		if bytes := compressGradient(g, nil, 1, -8); bytes != int64(len(g))*wireBytesPerFloat {
			t.Fatalf("negative bits changed byte accounting: %d", bytes)
		}
		for i, v := range g {
			if v != mk()[i] {
				t.Fatalf("negative bits quantized g[%d]", i)
			}
		}
	})

	t.Run("bits-over-16-clamp", func(t *testing.T) {
		g := mk()
		bytes := compressGradient(g, nil, 1, 24)
		want := (int64(len(g))*16 + 7) / 8
		if bytes != want {
			t.Fatalf("bits=24 bytes = %d, want clamped-to-16 %d", bytes, want)
		}
	})

	t.Run("bits-32-disables", func(t *testing.T) {
		g := mk()
		if bytes := compressGradient(g, nil, 1, 32); bytes != int64(len(g))*wireBytesPerFloat {
			t.Fatalf("bits=32 should disable quantization: %d bytes", bytes)
		}
	})

	t.Run("quantize-clamps-without-panic", func(t *testing.T) {
		for _, bits := range []int{-3, 0, 1, 16, 99} {
			g := mk()
			quantizeInPlace(g, bits) // must not panic on any width
			for i, v := range g {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("bits=%d produced non-finite g[%d]", bits, i)
				}
			}
		}
		// bits=1 collapses to sign * max magnitude levels.
		g := mk()
		quantizeInPlace(g, 1)
		for i, v := range g {
			if math.Abs(v) > 4 {
				t.Fatalf("bits=1 g[%d]=%g exceeds max magnitude", i, v)
			}
		}
	})

	t.Run("empty-gradient", func(t *testing.T) {
		if bytes := compressGradient(nil, nil, 0.5, 8); bytes < 0 {
			t.Fatalf("empty gradient negative bytes %d", bytes)
		}
		quantizeInPlace(nil, 8)
	})
}
