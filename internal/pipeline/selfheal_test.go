package pipeline

import (
	"math"
	"strings"
	"testing"

	"dlsys/internal/obs"
)

// A self-healing pipeline under numerical faults must ship a usable model
// and surface the incidents in its ledger; the same spec without SelfHeal
// (observe) must record the incidents without remediating.
func TestSelfHealingPipelineSurvivesNumericalFaults(t *testing.T) {
	base := Spec{Seed: 41, Epochs: 15, Hidden: []int{24}, NumericalFaultRate: 0.1}

	healed := base
	healed.SelfHeal = true
	healed.Obs = obs.NewHandle()
	lh, err := Run(healed)
	if err != nil {
		t.Fatal(err)
	}
	if lh.Incidents == 0 {
		t.Fatal("no incidents recorded at fault rate 0.1")
	}
	if math.IsNaN(lh.Accuracy) || lh.Accuracy < 0.7 {
		t.Fatalf("self-healing pipeline accuracy %.3f", lh.Accuracy)
	}
	// The stage counters, stage spans and the guarded stage's incidents
	// reconcile with the ledger, and one extra increment is named.
	if err := lh.Reconcile(healed.Obs); err != nil {
		t.Fatal(err)
	}
	healed.Obs.Counter("pipeline.incidents").Inc()
	if err := lh.Reconcile(healed.Obs); err == nil || !strings.Contains(err.Error(), "pipeline.incidents=") {
		t.Fatalf("a bumped pipeline.incidents was not named: %v", err)
	}

	observed, err := Run(base) // SelfHeal off: observe only
	if err != nil {
		t.Fatal(err)
	}
	if observed.Incidents == 0 {
		t.Fatal("observe mode recorded no incidents")
	}
	if observed.Rollbacks != 0 {
		t.Fatal("observe mode must not roll back")
	}
}

// Same spec, same seeds → identical self-healing trace.
func TestSelfHealingPipelineDeterministic(t *testing.T) {
	spec := Spec{Seed: 43, Epochs: 12, Hidden: []int{24}, SelfHeal: true, NumericalFaultRate: 0.15}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Incidents != b.Incidents || a.Rollbacks != b.Rollbacks || a.Accuracy != b.Accuracy {
		t.Fatalf("self-healing trace not deterministic:\nA: %+v\nB: %+v", a, b)
	}
}

func TestNumericalFaultRateValidated(t *testing.T) {
	if _, err := Run(Spec{Seed: 1, NumericalFaultRate: 1.5}); err == nil {
		t.Fatal("out-of-range numerical fault rate accepted")
	}
}
