package core

import (
	"math/rand"
	"strings"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/distributed"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
)

// TestX12TopologyClaims pins the X12 acceptance criteria: across the
// weak-scaling matrix every topology × scenario cell converges within
// 1.5x of its n's clean all-to-all loss with churn ledgers exact, a ring
// under sustained link loss degrades to the mesh and still converges,
// ring/tree beat the mesh's simulated time per round at n ≥ 64 with the
// planner's analytic model matching the measured times, the topology
// counters reconcile exactly with obs, and the hardest cell replays
// bit-identically. Every check is on deterministic simulated quantities,
// so one run suffices.
func TestX12TopologyClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("X12 weak-scaling matrix skipped in -short mode")
	}
	e, ok := Get("X12")
	if !ok {
		t.Fatal("X12 not registered")
	}
	tab := e.Run(Quick)
	t.Log("\n" + tab.Render())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}

	// Quick scale: 2 n values × 4 topologies × 4 scenarios convergence
	// cells, the five lettered invariants, and the per-n timing rows.
	wantInvariants := []string{
		"invariant-a-convergence", "invariant-b-degradation",
		"invariant-c-scaling", "invariant-d-reconciliation",
		"invariant-e-replay",
	}
	seen := map[string]bool{}
	conv, timing := 0, 0
	for _, row := range tab.Rows {
		cell := row[col["cell"]]
		seen[cell] = true
		switch {
		case strings.HasPrefix(cell, "conv-"):
			conv++
		case strings.HasPrefix(cell, "time-"):
			timing++
		}
		if row[col["ok"]] != "yes" {
			t.Errorf("%s failed: %s", cell, row[col["detail"]])
		}
	}
	if conv != 2*4*4 {
		t.Errorf("matrix has %d convergence cells, want 32", conv)
	}
	if timing < 2*4+1 {
		t.Errorf("matrix has %d timing rows, want per-topology rounds at both n plus the crossover", timing)
	}
	for _, inv := range wantInvariants {
		if !seen[inv] {
			t.Errorf("invariant row %q missing", inv)
		}
	}
}

// TestX12HealsReconcileAtN64 runs X12's hardest quick cell — n=64, ring,
// link faults and churn together — with obs attached, checks that the cell
// healed at least once, and reconciles all 32 distributed counters and 3
// gauges with Stats. The table's invariant-d-reconciliation row reconciles
// only at n=16.
func TestX12HealsReconcileAtN64(t *testing.T) {
	if testing.Short() {
		t.Skip("X12 n=64 cell skipped in -short mode")
	}
	const n = 64
	rng := rand.New(rand.NewSource(200 + n))
	ds := data.GaussianMixture(rng, 16*n, 5, 3, 3.2)
	h := obs.NewHandle()
	cfg := x12Config(n, distributed.TopoRing, "both")
	cfg.Obs = h
	_, stats, err := distributed.Train(201, ds.X, nn.OneHot(ds.Labels, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TopoHeals == 0 {
		t.Fatal("the n=64 cell never healed")
	}
	if err := stats.Reconcile(h); err != nil {
		t.Fatal(err)
	}
}
