package core

import (
	"fmt"
	"math/rand"

	"dlsys/internal/fault"
	"dlsys/internal/learned"
	"dlsys/internal/livedb"
	"dlsys/internal/obs"
	"dlsys/internal/sim"
)

// X11 stresses the online index-maintenance engine across a drift-schedule
// × fault-rate matrix: three key-distribution drift shapes (steady,
// gradual, flash) crossed with two corrupted-insert regimes (clean,
// bursty). Every cell runs the same guarded maintenance loop — monitor,
// retrain, validate, swap or roll back, degrade down the fallback ladder —
// and four invariants are checked across the whole matrix: (a) 100% query
// availability with the served-tier mix recorded; (b) no validated and
// swapped index ever exceeds its declared max search window at runtime;
// (c) obs counters reconcile exactly with the engine's stats and the
// retrain/rollback ledger, and two runs of each cell produce bit-identical
// kernel/ledger/registry fingerprints; (d) wherever a retrain swapped, the
// learned path re-attains its latency and memory win over the B-tree
// baseline, measured live on the post-swap index.

func init() {
	register(Experiment{
		ID: "X11", Section: "3",
		Title: "Drift-hardened online learned indexes under live traffic",
		Claim: "Across a drift-schedule × fault-rate matrix, online index maintenance keeps 100% availability down the fallback ladder, never serves a validated index past its declared search window, reconciles counters exactly with the retrain/rollback ledger with bit-identical replay, and re-attains the learned-vs-B-tree latency/memory win after every retrain",
		Run:   runX11,
	})
}

// x11Drifts and x11Faults are the matrix axes.
var x11Drifts = []string{"steady", "gradual", "flash"}
var x11Faults = []string{"clean", "bursty"}

// x11Cell is the outcome of one matrix cell, run twice.
type x11Cell struct {
	drift, faults string

	stats livedb.Stats
	wl    livedb.WorkloadStats

	kernelFP, ledgerFP, regFP [2]uint64

	reconcileErr error

	serving          bool
	learnedS, btreeS float64
	lookups          int
	lmem, bmem       int64
}

// x11CellConfig lays the drift phases and fault windows onto the cell's
// timeline. T is the nominal day length (Ops/Rate); clusters sit inside
// the clustered key population's space so clean inserts stay within the
// schema fence, and corrupt bursts flip high bits that land far outside it.
func x11CellConfig(drift, faultMode string, ops int, rate float64, seed int64) livedb.WorkloadConfig {
	T := float64(ops) / rate
	cfg := livedb.WorkloadConfig{
		Seed:         seed,
		Ops:          ops,
		Rate:         rate,
		ClusterWidth: 1 << 38,
	}
	switch drift {
	case "steady":
		cfg.Phases = []livedb.Phase{{StartS: 0}}
	case "gradual":
		cfg.Phases = []livedb.Phase{
			{StartS: 0},
			{StartS: 0.3 * T, Clusters: []uint64{5 << 40}, HardNegFrac: 0.25},
			{StartS: 0.6 * T, Clusters: []uint64{5 << 40, 11 << 40}, HardNegFrac: 0.45},
		}
	case "flash":
		cfg.Phases = []livedb.Phase{
			{StartS: 0},
			{StartS: 0.5 * T, Clusters: []uint64{13 << 40}, HardNegFrac: 0.7},
		}
	}
	if faultMode == "bursty" {
		cfg.Faults = fault.Config{Seed: seed + 7, Schedule: []fault.Window{
			{Kind: fault.KindCorrupt, StartS: 0.15 * T, EndS: 0.3 * T, Prob: 0.25},
			{Kind: fault.KindCorrupt, StartS: 0.65 * T, EndS: 0.75 * T, Prob: 0.25},
		}}
	}
	return cfg
}

// runX11Cell runs one cell twice on fresh kernels/handles and collects its
// stats, fingerprints, reconciliation verdict, and the live crossover
// sample.
func runX11Cell(drift, faultMode string, nKeys, ops int, rate float64) (*x11Cell, error) {
	c := &x11Cell{drift: drift, faults: faultMode}
	seed := int64(300 + 10*len(drift) + len(faultMode))
	initial := learned.ClusteredKeys(rand.New(rand.NewSource(seed)), nKeys, 4, 1<<44)

	for rep := 0; rep < 2; rep++ {
		k := sim.New()
		h := obs.NewHandle()
		eng, err := livedb.NewEngine(initial, livedb.Config{
			Seed: seed, Kernel: k, Obs: h,
		})
		if err != nil {
			return nil, err
		}
		wcfg := x11CellConfig(drift, faultMode, ops, rate, seed+1)
		wcfg.Space = initial[len(initial)-1]
		wl, err := livedb.NewWorkload(eng, initial, wcfg)
		if err != nil {
			return nil, err
		}
		eng.Start()
		wl.Start()
		k.Run()

		// Post-run live probe sweep at the final index: identical in both
		// reps, so it is part of the replayed timeline — it populates the
		// crossover sample even when the last swap landed at the day's end.
		if eng.State() == livedb.StateServing {
			for i := 0; i < len(initial); i += 37 {
				eng.Lookup(initial[i])
			}
		}

		c.kernelFP[rep] = k.Fingerprint()
		c.ledgerFP[rep] = eng.Ledger().Fingerprint()
		c.regFP[rep] = h.Reg.Fingerprint()
		if rep > 0 {
			continue
		}
		c.stats = eng.Stats()
		c.wl = wl.Stats()
		c.serving = eng.State() == livedb.StateServing
		c.learnedS, c.btreeS, c.lookups = eng.LearnedWin()
		c.lmem, c.bmem = eng.LearnedMemoryBytes(), eng.BTreeMemoryBytes()

		// Invariant (c), counter half: the shared registry reconciles
		// exactly with the engine's stats mirror and the maintenance ledger.
		c.reconcileErr = eng.Reconcile()
	}
	return c, nil
}

// replayOK is invariant (c), replay half: both reps bit-identical.
func (c *x11Cell) replayOK() bool {
	return c.kernelFP[0] == c.kernelFP[1] &&
		c.ledgerFP[0] == c.ledgerFP[1] &&
		c.regFP[0] == c.regFP[1]
}

// availOK is invariant (a): every query answered by exactly one tier and
// every answer agreeing with the client-side oracle of acked writes.
func (c *x11Cell) availOK() bool {
	return c.stats.ServedTotal() == c.stats.Queries() && c.wl.Mismatches == 0
}

// winOK is invariant (d) for one cell with at least one swap: the post-swap
// learned path beats the modeled B-tree on measured service time and is at
// least 4x smaller in memory.
func (c *x11Cell) winOK() bool {
	return c.lookups > 0 && c.learnedS < c.btreeS && c.lmem*4 <= c.bmem
}

func (c *x11Cell) tierMix() string {
	st := c.stats
	return fmt.Sprintf("learned=%d delta=%d btree=%d scan=%d",
		st.TierServed[livedb.TierLearned], st.TierServed[livedb.TierDelta],
		st.TierServed[livedb.TierBTree], st.TierServed[livedb.TierScan])
}

func runX11(scale Scale) *Table {
	t := &Table{ID: "X11", Title: "Drift-hardened online learned indexes",
		Claim:   "across drift × fault cells: 100% availability down the fallback ladder, declared search windows honored, exact counter/ledger reconciliation with bit-identical replay, learned latency/memory win re-attained after retrains",
		Columns: []string{"check", "detail", "ok"}}

	nKeys, ops, rate := 2000, 1600, 400.0
	if scale == Full {
		nKeys, ops, rate = 6000, 6000, 400.0
	}

	var cells []*x11Cell
	for _, drift := range x11Drifts {
		for _, fm := range x11Faults {
			c, err := runX11Cell(drift, fm, nKeys, ops, rate)
			if err != nil {
				t.AddRow("cell-"+drift+"-"+fm, err.Error(), yesNo(false))
				t.Shape = "cell run failed"
				return t
			}
			cells = append(cells, c)
		}
	}

	t.AddRow("matrix",
		fmt.Sprintf("drift=%v x faults=%v keys=%d ops/cell=%d", x11Drifts, x11Faults, nKeys, ops),
		yesNo(len(cells) == len(x11Drifts)*len(x11Faults)))

	allAvail, allWindow, allRecon := true, true, true
	swapsSeen, winChecked, winOK := 0, 0, true
	burstyQuarantines := 0
	for _, c := range cells {
		cellOK := c.availOK() && c.stats.WindowViolations == 0 && c.reconcileErr == nil && c.replayOK()
		t.AddRow("cell-"+c.drift+"-"+c.faults,
			fmt.Sprintf("retrains=%d swaps=%d rollbacks=%d quarantined=%d corrupted=%d mismatches=%d %s",
				c.stats.Retrains, c.stats.Swaps, c.stats.Rollbacks, c.stats.Quarantined,
				c.wl.CorruptedSent, c.wl.Mismatches, c.tierMix()),
			yesNo(cellOK))
		allAvail = allAvail && c.availOK()
		allWindow = allWindow && c.stats.WindowViolations == 0
		allRecon = allRecon && c.reconcileErr == nil && c.replayOK()
		swapsSeen += c.stats.Swaps
		if c.stats.Swaps > 0 && c.serving {
			winChecked++
			winOK = winOK && c.winOK()
		}
		if c.faults == "bursty" {
			burstyQuarantines += c.stats.Quarantined
		}
	}

	t.AddRow("invariant-a-availability",
		fmt.Sprintf("every query served by exactly one ladder tier, 0 oracle mismatches across %d cells", len(cells)),
		yesNo(allAvail))
	t.AddRow("invariant-b-window-contract",
		"0 probes past the declared max search window on any validated index",
		yesNo(allWindow))
	t.AddRow("invariant-c-reconcile-replay",
		"counters == stats == ledger in every cell; kernel/ledger/registry fingerprints bit-identical across reps",
		yesNo(allRecon))
	t.AddRow("invariant-d-learned-win",
		fmt.Sprintf("post-retrain learned tier beat the B-tree in %d/%d swap cells (swaps total=%d, bursty quarantined=%d)",
			winChecked, len(cells), swapsSeen, burstyQuarantines),
		yesNo(swapsSeen > 0 && winChecked > 0 && winOK && burstyQuarantines > 0))

	t.Shape = "every cell keeps the ladder fully available under drift and corrupted-insert bursts; rollbacks quarantine exactly the fence violators, swaps re-attain the learned win, and the whole matrix replays bit-identically"
	return t
}
