package main

import (
	"fmt"
	"strings"
	"testing"

	"dlsys/internal/core"
)

// Fingerprints of the experiment cells whose tables do not print them,
// taken from the experiments' own code at quick scale: X14's budgets-off
// arm (x14Run with the control plane off) and X11's flash x bursty cell
// (runX11Cell, first rep).
const (
	x14OffKernelFP = 0x9301647794ce620b
	x14OffLedgerFP = 0x2541ea2130c5bdb9
	x11KernelFP    = 0xcb66ef6e35514c6f
	x11LedgerFP    = 0xb01b03c9268be85f
)

// tableFingerprint reads a "name=%016x" field off the row whose check
// column is row.
func tableFingerprint(t *testing.T, tab *core.Table, row, name string) uint64 {
	t.Helper()
	for _, r := range tab.Rows {
		if r[0] != row {
			continue
		}
		for _, field := range strings.Fields(r[1]) {
			if v, ok := strings.CutPrefix(field, name+"="); ok {
				var fp uint64
				if _, err := fmt.Sscanf(v, "%x", &fp); err != nil {
					t.Fatalf("%s %s: %v", tab.ID, row, err)
				}
				return fp
			}
		}
	}
	t.Fatalf("%s: no %s= in row %q", tab.ID, name, row)
	return 0
}

func runExperiment(t *testing.T, id string) *core.Table {
	t.Helper()
	e, ok := core.Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e.Run(core.Quick)
}

// quickRep runs one untraced rep of a workload at quick size and seed 0.
func quickRep(t *testing.T, name string) outcome {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rep, err := w.setup(0, false)
	if err != nil {
		t.Fatal(err)
	}
	o := rep(nil)
	if o.fail != "" {
		t.Fatalf("%s: %s", name, o.fail)
	}
	return o
}

// At seed 0 each simulator workload must replay its experiment bit for
// bit: a benchmark that drifted from the experiment would time a
// different system.
func TestFidelity(t *testing.T) {
	x10 := runExperiment(t, "X10")
	day := quickRep(t, "day")
	if want := tableFingerprint(t, x10, "invariant-4-replay", "kernel"); day.kernelFP != want {
		t.Errorf("day kernel fingerprint %016x, X10 has %016x", day.kernelFP, want)
	}
	if want := tableFingerprint(t, x10, "invariant-4-replay", "index"); day.ledgerFP != want {
		t.Errorf("day index ledger fingerprint %016x, X10 has %016x", day.ledgerFP, want)
	}

	x14 := runExperiment(t, "X14")
	on := quickRep(t, "fleet-overload")
	if want := tableFingerprint(t, x14, "replay", "kernel"); on.kernelFP != want {
		t.Errorf("fleet-overload kernel fingerprint %016x, X14 has %016x", on.kernelFP, want)
	}
	if want := tableFingerprint(t, x14, "replay", "ledger"); on.ledgerFP != want {
		t.Errorf("fleet-overload ledger fingerprint %016x, X14 has %016x", on.ledgerFP, want)
	}

	for _, c := range []struct {
		workload       string
		kernel, ledger uint64
	}{
		{"fleet-collapse", x14OffKernelFP, x14OffLedgerFP},
		{"live-index", x11KernelFP, x11LedgerFP},
	} {
		o := quickRep(t, c.workload)
		if o.kernelFP != c.kernel || o.ledgerFP != c.ledger {
			t.Errorf("%s fingerprints kernel=%016x ledger=%016x, experiment has kernel=%016x ledger=%016x",
				c.workload, o.kernelFP, o.ledgerFP, c.kernel, c.ledger)
		}
	}
}
