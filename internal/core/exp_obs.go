package core

import (
	"fmt"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/pipeline"
	"dlsys/internal/serve"
	"dlsys/internal/tensor"
)

// X8 studies the deterministic observability layer: the faulty scenarios of
// X5 (distributed training), X6 (serving), and X7 (self-healing training)
// are replayed with live metrics and tracing attached. Three claims are
// checked: (1) the metric registry and span trace fingerprint bit-identically
// across same-seed replays, because every instrument is updated from
// deterministic call sites and every span is stamped from a simulated clock;
// (2) the counters reconcile EXACTLY with each subsystem's own ledger,
// because they are incremented at the same code sites; (3) instrumentation
// costs under 5% wall-clock on the compute-dominated experiment paths. The
// table shows (1) and (2); (3) is a wall-clock measurement, so
// TestX8ObservabilityClaims takes it and the table stays byte-stable.

func init() {
	register(Experiment{
		ID: "X8", Section: "2.3",
		Title: "Deterministic observability: metrics and tracing replay bit-identically",
		Claim: "Metrics and spans recorded from simulated clocks replay bit-identically under the same seed, reconcile exactly with the subsystem ledgers, and cost under 5% on compute-dominated paths",
		Run:   runX8,
	})
}

// obsScenario is one instrumented replay target. run executes the scenario
// against the handle (nil = uninstrumented baseline for the overhead
// measurement) and returns the subsystem's Reconcile verdict on it.
type obsScenario struct {
	name string
	run  func(h *obs.Handle) error
}

// x8Scenarios builds the instrumented replays of the X5/X6/X7 paths. All
// inputs are generated up front so the closures are pure functions of the
// handle — the replay-determinism assertion depends on that.
func x8Scenarios(scale Scale) []obsScenario {
	n, epochs := 480, 10
	requests := 600
	if scale == Full {
		n, epochs = 1600, 25
		requests = 2400
	}

	// X5 path: distributed training under a faulty schedule.
	rng := rand.New(rand.NewSource(150))
	ds := data.GaussianMixture(rng, n, 6, 3, 3.2)
	train, test := ds.Split(rng, 0.8)
	_ = test
	y := nn.OneHot(train.Labels, 3)
	arch := nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3}
	distScenario := func(name string, averagePeriod int) obsScenario {
		return obsScenario{name: name, run: func(h *obs.Handle) error {
			_, stats, err := distributed.Train(151, train.X, y, distributed.Config{
				Workers: 4, Arch: arch, Epochs: epochs, BatchSize: 16, LR: 0.1,
				AveragePeriod: averagePeriod, TopK: 0.25,
				Fault: fault.Rate(152, 0.1), SnapshotPeriod: 3, DropSlowestK: 1,
				Obs: h,
			})
			if err != nil || h == nil {
				return err
			}
			return stats.Reconcile(h)
		}}
	}

	// X6 path: variant building plus a replica fleet under faults and
	// overload — the same compute balance as the X6 benchmark, so the
	// overhead measurement reflects the path the claim is about.
	serveScenario := obsScenario{name: "serve", run: func(h *obs.Handle) error {
		variants, eval, err := serve.BuildVariants(serve.VariantsConfig{
			Seed: 160, Examples: n, Epochs: epochs,
		})
		if err != nil {
			return err
		}
		mk := func(v serve.Variant) serve.Replica {
			return serve.Replica{Variant: v, Device: device.EdgeDevice, Efficiency: 0.5}
		}
		fleet := []serve.Replica{mk(variants[0]), mk(variants[0]), mk(variants[1]), mk(variants[2]), mk(variants[3])}
		srv, err := serve.NewServer(serve.Config{
			Seed:          161,
			Faults:        fault.Rate(161, 0.2),
			Replicas:      fleet,
			ArrivalRate:   1.3 * 2 / fleet[0].ServiceS(),
			Requests:      requests,
			HedgeQuantile: 0.9,
			Fallback:      true,
			EvalX:         eval.X,
			EvalLabels:    eval.Labels,
			Obs:           h,
		})
		if err != nil {
			return err
		}
		res := srv.Run()
		if h == nil {
			return nil
		}
		return res.Reconcile(h)
	}}

	// X7 path: guarded training under numerical faults.
	grng := rand.New(rand.NewSource(170))
	gds := data.GaussianMixture(grng, n, 6, 3, 2.5)
	gtrain, _ := gds.Split(grng, 0.8)
	gy := nn.OneHot(gtrain.Labels, 3)
	guardScenario := obsScenario{name: "selfheal", run: func(h *obs.Handle) error {
		net := nn.NewMLP(rand.New(rand.NewSource(171)), nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3})
		tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rand.New(rand.NewSource(172)))
		g := guard.New(tr, guard.Policy{Mode: guard.Enforce, Schema: guard.NewBatchSchema(gtrain.X, 6), Obs: h})
		inj := fault.NewInjector(fault.NumericalRate(173, 0.2))
		g.Fit(gtrain.X, gy, guard.FitConfig{
			Epochs: epochs, BatchSize: 16,
			Inject: func(step int, bx, by *tensor.Tensor) {
				if inj.CorruptsBatch(0, step) {
					inj.CorruptBatchValues(bx.Data, 0, step)
				}
				if inj.LabelNoise(0, step) {
					inj.ShuffleLabels(by.Data, by.Dim(0), by.Dim(1), 0, step)
				}
			},
			LRSpike: func(step int) float64 { return inj.LRSpikeFactor(0, step) },
		})
		if h == nil {
			return nil
		}
		return g.Ledger().Reconcile(h)
	}}

	// X5's pipeline rows: compression stages failing and falling back, plus
	// a guarded training stage feeding incidents through the same handle.
	pipeScenario := obsScenario{name: "pipeline", run: func(h *obs.Handle) error {
		l, err := pipeline.Run(pipeline.Spec{
			Seed: 153, Epochs: epochs, PruneSparsity: 0.5, DistillWidth: 8,
			QuantizeBits: 8, FaultRate: 0.5,
			SelfHeal: true, NumericalFaultRate: 0.05,
			Obs: h,
		})
		if err != nil || h == nil {
			return err
		}
		return l.Reconcile(h)
	}}

	return []obsScenario{
		distScenario("train-sync", 1),
		distScenario("train-local", 4),
		serveScenario,
		guardScenario,
		pipeScenario,
	}
}

func runX8(scale Scale) *Table {
	t := &Table{ID: "X8", Title: "Deterministic observability",
		Claim:   "metrics and traces replay bit-identically, reconcile exactly with subsystem ledgers, and cost <5% on compute-dominated paths",
		Columns: []string{"scenario", "metric_fp", "trace_fp", "replay", "reconciled", "spans"}}

	for _, sc := range x8Scenarios(scale) {
		h1 := obs.NewHandle()
		err1 := sc.run(h1)
		h2 := obs.NewHandle()
		err2 := sc.run(h2)
		replay := h1.Reg.Fingerprint() == h2.Reg.Fingerprint() &&
			h1.Tracer.Fingerprint() == h2.Tracer.Fingerprint()
		reconciled := err1 == nil && err2 == nil

		t.AddRow(sc.name,
			fmt.Sprintf("%016x", h1.Reg.Fingerprint()),
			fmt.Sprintf("%016x", h1.Tracer.Fingerprint()),
			yesNo(replay), yesNo(reconciled), h1.Tracer.Len())
	}
	t.Shape = "every scenario replays with identical metric and trace fingerprints and every counter reconciles exactly with its subsystem ledger; TestX8ObservabilityClaims holds the <5% wall-clock overhead bound"
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
