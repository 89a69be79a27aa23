package core

import "testing"

// TestX11LiveIndexClaims pins the X11 acceptance criteria: across the
// drift-schedule × fault-rate matrix, the online index-maintenance engine
// holds all four invariants — (a) 100% availability with every answer
// matching the client-side oracle, (b) no validated index serving past its
// declared max search window, (c) exact counter/stats/ledger
// reconciliation with bit-identical kernel/ledger/registry replay in every
// cell, and (d) the learned latency/memory win re-attained live after
// retrains, with corrupted bursts quarantined on rollback. Every check is
// on deterministic simulated quantities, so one run suffices.
func TestX11LiveIndexClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("X11 drift matrix skipped in -short mode")
	}
	e, ok := Get("X11")
	if !ok {
		t.Fatal("X11 not registered")
	}
	tab := e.Run(Quick)
	t.Log("\n" + tab.Render())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}

	wantChecks := []string{
		"matrix",
		"cell-steady-clean", "cell-steady-bursty",
		"cell-gradual-clean", "cell-gradual-bursty",
		"cell-flash-clean", "cell-flash-bursty",
		"invariant-a-availability", "invariant-b-window-contract",
		"invariant-c-reconcile-replay", "invariant-d-learned-win",
	}
	if len(tab.Rows) != len(wantChecks) {
		t.Fatalf("X11 produced %d rows, want %d: %v", len(tab.Rows), len(wantChecks), tab.Rows)
	}
	for i, row := range tab.Rows {
		if row[col["check"]] != wantChecks[i] {
			t.Errorf("row %d is %q, want %q", i, row[col["check"]], wantChecks[i])
			continue
		}
		if row[col["ok"]] != "yes" {
			t.Errorf("%s failed: %s", row[col["check"]], row[col["detail"]])
		}
	}
}

// TestLiveIndexBenchmark runs, outside the X11 table, the hardest X11
// cell (flash drift × bursty faults, 2000 keys, 1600 ops at rate 400):
// the cell the benchmark's live-index workload times. The cell must answer
// queries, keep availability and, when a swapped-in learned index is still
// serving, re-attain the learned win.
func TestLiveIndexBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("X11 flash x bursty cell skipped in -short mode")
	}
	c, err := runX11Cell("flash", "bursty", 2000, 1600, 400)
	if err != nil {
		t.Fatal(err)
	}
	if c.stats.Queries() <= 0 {
		t.Fatalf("cell answered no queries: %+v", c.stats)
	}
	if !c.availOK() {
		t.Fatal("flash x bursty cell lost availability")
	}
	if c.stats.Swaps > 0 && c.serving && !c.winOK() {
		t.Fatalf("learned index serving after %d swaps without the learned win", c.stats.Swaps)
	}
}
