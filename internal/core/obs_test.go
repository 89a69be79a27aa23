package core

import (
	"strconv"
	"testing"
	"time"

	"dlsys/internal/obs"
)

// TestX8ObservabilityClaims pins the three X8 acceptance criteria: every
// instrumented scenario replays with bit-identical metric and trace
// fingerprints, every counter reconciles exactly with its subsystem's own
// ledger, and instrumentation overhead stays under 5% on the
// compute-dominated experiment paths. Fingerprint and reconciliation checks
// are deterministic and read off one table run. Overhead is a wall-clock
// measurement, so the table leaves it out and this test takes it: a scenario
// only needs to land under the bound on one of a few attempts to absorb
// scheduler noise.
func TestX8ObservabilityClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("X8 replay skipped in -short mode")
	}
	e, ok := Get("X8")
	if !ok {
		t.Fatal("X8 not registered")
	}
	tab := e.Run(Quick)
	t.Log("\n" + tab.Render())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("X8 produced %d rows, want 5 scenarios", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		name := row[col["scenario"]]
		if row[col["replay"]] != "yes" {
			t.Fatalf("%s did not replay bit-identically:\n%s", name, tab.Render())
		}
		if row[col["reconciled"]] != "yes" {
			t.Fatalf("%s counters did not reconcile with the subsystem ledger:\n%s", name, tab.Render())
		}
		if spans, err := strconv.Atoi(row[col["spans"]]); err != nil || spans <= 0 {
			t.Fatalf("%s recorded no spans (%q)", name, row[col["spans"]])
		}
		for _, fp := range []string{"metric_fp", "trace_fp"} {
			v := row[col[fp]]
			if len(v) != 16 || v == "0000000000000000" {
				t.Fatalf("%s has an implausible %s %q", name, fp, v)
			}
		}
	}

	const (
		attempts      = 3
		overheadBound = 5.0 // percent, per the X8 claim
	)
	pending := x8Scenarios(Quick)
	for attempt := 1; attempt <= attempts && len(pending) > 0; attempt++ {
		var over []obsScenario
		for _, sc := range pending {
			// Fastest instrumented run vs fastest bare run. The scenarios
			// are compute-dominated (training / full simulations), so the
			// handful of atomic updates per step must disappear into noise.
			instr, bare := bestOfPairs(
				func() { sc.run(obs.NewHandle()) },
				func() { sc.run(nil) },
			)
			pct := 100 * (instr.Seconds() - bare.Seconds()) / bare.Seconds()
			t.Logf("attempt %d: %s overhead %.3g%%", attempt, sc.name, pct)
			if pct >= overheadBound {
				over = append(over, sc)
			}
		}
		pending = over
	}
	for _, sc := range pending {
		t.Errorf("%s overhead stayed at or above %.1f%% across %d attempts", sc.name, overheadBound, attempts)
	}
}

// bestOfPairs returns the fastest run of a and the fastest run of b — the
// standard defence against scheduler noise in wall-clock comparisons. The
// runs go in pairs, one of each, and the pair's order alternates, so both
// sides sample the same background load. Timing every run of a and then
// every run of b lets a change in load between the two phases read as a
// difference between a and b: on a shared 2-vCPU host running the whole
// suite, where other test processes start and finish meanwhile, that moved
// single readings by tens of percent either way. Short runs repeat until
// each side has accumulated enough total time for its minimum to be
// trustworthy.
func bestOfPairs(a, b func()) (bestA, bestB time.Duration) {
	const (
		minPairs = 3
		maxPairs = 100
		minTotal = 200 * time.Millisecond // per side
	)
	timed := func(fn func(), best *time.Duration) time.Duration {
		start := time.Now()
		fn()
		d := time.Since(start)
		if *best == 0 || d < *best {
			*best = d
		}
		return d
	}
	var totalA, totalB time.Duration
	for i := 0; i < maxPairs && (i < minPairs || totalA < minTotal || totalB < minTotal); i++ {
		if i%2 == 0 {
			totalA += timed(a, &bestA)
			totalB += timed(b, &bestB)
		} else {
			totalB += timed(b, &bestB)
			totalA += timed(a, &bestA)
		}
	}
	return bestA, bestB
}

// TestExperimentReplayDeterminism runs the fault/serving/self-healing
// experiments, plus the three whose claims involve wall time but whose
// tables must not (A9, X8, X14), twice in-process and asserts the rendered
// tables are byte-identical — the regression guard for the determinism the
// whole observability layer is built on. Any hidden global state, map-order
// dependence, or wall-clock leakage in these paths shows up here as a diff.
func TestExperimentReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replay sweep skipped in -short mode")
	}
	for _, id := range []string{"X5", "X6", "X7", "A9", "X8", "X14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := Get(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			first := e.Run(Quick).Render()
			second := e.Run(Quick).Render()
			if first != second {
				t.Fatalf("%s is not replay-deterministic:\n--- first ---\n%s\n--- second ---\n%s", id, first, second)
			}
		})
	}
}
