// Observe: the deterministic observability layer end to end. One guarded
// training run and one serving run share a single obs.Handle; the demo
// prints each subsystem's Reconcile verdict on its counters against its own
// ledger, a few spans stamped from the simulated clocks, the registry and trace
// fingerprints for two same-seed replays (bit-identical), and finally a
// JSONL export — the byte-deterministic dump a dashboard or offline
// analysis would consume.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/serve"
	"dlsys/internal/tensor"
)

// scenario runs a guarded training pass and a faulty serving pass against
// the handle, returning the guard ledger and serve result for
// reconciliation. Everything is seeded, so any two calls observe the
// identical sequence of updates.
func scenario(h *obs.Handle) (*guard.Trainer, serve.Result) {
	rng := rand.New(rand.NewSource(40))
	ds := data.GaussianMixture(rng, 480, 6, 3, 2.5)
	train, _ := ds.Split(rng, 0.8)

	net := nn.NewMLP(rand.New(rand.NewSource(41)), nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3})
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rand.New(rand.NewSource(42)))
	g := guard.New(tr, guard.Policy{Mode: guard.Enforce, Schema: guard.NewBatchSchema(train.X, 6), Obs: h})
	inj := fault.NewInjector(fault.NumericalRate(43, 0.15))
	g.Fit(train.X, nn.OneHot(train.Labels, 3), guard.FitConfig{
		Epochs: 8, BatchSize: 16,
		Inject: func(step int, bx, by *tensor.Tensor) {
			if inj.CorruptsBatch(0, step) {
				inj.CorruptBatchValues(bx.Data, 0, step)
			}
		},
		LRSpike: func(step int) float64 { return inj.LRSpikeFactor(0, step) },
	})

	variants, eval, err := serve.BuildVariants(serve.VariantsConfig{Seed: 44, Examples: 400, Epochs: 6})
	if err != nil {
		panic(err)
	}
	mk := func(v serve.Variant) serve.Replica {
		return serve.Replica{Variant: v, Device: device.EdgeDevice, Efficiency: 0.5}
	}
	fleet := []serve.Replica{mk(variants[0]), mk(variants[0]), mk(variants[1]), mk(variants[2]), mk(variants[3])}
	srv, err := serve.NewServer(serve.Config{
		Seed: 45, Faults: fault.Rate(45, 0.15), Replicas: fleet,
		ArrivalRate: 1.2 * 2 / fleet[0].ServiceS(), Requests: 400,
		HedgeQuantile: 0.9, Fallback: true,
		EvalX: eval.X, EvalLabels: eval.Labels,
		Obs: h,
	})
	if err != nil {
		panic(err)
	}
	return g, srv.Run()
}

func main() {
	fmt.Println("=== One handle, two subsystems ===")
	h := obs.NewHandle()
	g, res := scenario(h)

	fmt.Println("\nReconcile, every counter vs its subsystem's own ledger (<nil> = exact):")
	fmt.Println("  guard:", g.Ledger().Reconcile(h))
	fmt.Println("  serve:", res.Reconcile(h))

	fmt.Println("\nfirst spans (timestamps are simulated seconds, not wall time):")
	for i, sp := range h.Tracer.Spans() {
		if i == 4 {
			fmt.Printf("  ... %d more\n", h.Tracer.Len()-4)
			break
		}
		fmt.Printf("  [%7.4f, %7.4f] %s\n", sp.StartS, sp.EndS, sp.Name)
	}

	fmt.Println("\n=== Replay determinism ===")
	h2 := obs.NewHandle()
	scenario(h2)
	fmt.Printf("  metrics fingerprint: %016x vs %016x  identical=%v\n",
		h.Reg.Fingerprint(), h2.Reg.Fingerprint(), h.Reg.Fingerprint() == h2.Reg.Fingerprint())
	fmt.Printf("  trace fingerprint:   %016x vs %016x  identical=%v\n",
		h.Tracer.Fingerprint(), h2.Tracer.Fingerprint(), h.Tracer.Fingerprint() == h2.Tracer.Fingerprint())

	fmt.Println("\n=== JSONL export (first lines) ===")
	var b strings.Builder
	if err := h.Flush(obs.JSONLSink{W: &b}); err != nil {
		panic(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	for i, line := range lines {
		if i == 6 {
			fmt.Printf("  ... %d more lines\n", len(lines)-6)
			break
		}
		fmt.Println(" ", line)
	}
	if len(os.Args) > 1 && os.Args[1] == "-dump" {
		_ = h.Flush(obs.JSONLSink{W: os.Stdout})
	}
}
