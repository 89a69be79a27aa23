package core

import (
	"testing"

	"dlsys/internal/obs"
)

// TestX10ProductionDayClaims pins the X10 acceptance criteria: the
// composed production day — guarded Byzantine-robust training, the
// serving fleet, the event-driven multi-tenant fleet, and the online
// learned-index engine on one simulation kernel, under the scheduled
// chaos of crashes, stragglers, flash crowds, a Byzantine coalition, a
// numerical-fault burst, a corrupted-insert burst, and a tenant retry
// storm — holds all six global invariants: availability above the floor
// with the load spike visibly absorbed by tier degradation, no silent
// training divergence with guard and quarantine incidents reconciling
// with the schedule, exact cross-subsystem counter-vs-ledger
// reconciliation on the shared registry, bit-identical
// metric/trace/ledger/kernel/index/fleet fingerprints across two runs,
// the live index riding its fallback ladder through the corrupted burst
// without dropping a query, and every fleet tenant holding its
// availability floor through the retry storm. Every check is on
// deterministic simulated quantities, so one run suffices.
func TestX10ProductionDayClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("X10 composed day skipped in -short mode")
	}
	e, ok := Get("X10")
	if !ok {
		t.Fatal("X10 not registered")
	}
	tab := e.Run(Quick)
	t.Log("\n" + tab.Render())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}

	wantChecks := []string{
		"timeline", "chaos-observed",
		"invariant-1-availability", "invariant-2-integrity",
		"invariant-3-reconcile", "invariant-4-replay",
		"invariant-5-index", "invariant-6-tenants",
	}
	if len(tab.Rows) != len(wantChecks) {
		t.Fatalf("X10 produced %d rows, want %d: %v", len(tab.Rows), len(wantChecks), tab.Rows)
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

// TestChaosDayBenchmark builds and runs, outside the X10 table, the
// composed production day that the benchmark's day workload times, and
// checks that the day is not degenerate: kernel events from all seven
// actors, and a shared registry that reconciles with every subsystem
// ledger.
func TestChaosDayBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("X10 composed day skipped in -short mode")
	}
	sc, err := newX10Scenario(Quick)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.run(obs.NewHandle())
	if err != nil {
		t.Fatal(err)
	}
	if d.processed <= 0 || len(d.actors) != 7 {
		t.Fatalf("degenerate day: events=%d actors=%v", d.processed, d.actors)
	}
	if d.reconcileErr != nil {
		t.Fatalf("day did not reconcile: %v", d.reconcileErr)
	}
}
