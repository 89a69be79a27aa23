package robust

import (
	"math"
	"sync"
	"testing"
)

func vecs(rows ...[]float64) [][]float64 { return rows }

func almostEq(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMeanMatchesArithmeticMean(t *testing.T) {
	out := make([]float64, 2)
	Mean{}.Aggregate(out, vecs([]float64{1, 2}, []float64{3, 4}, []float64{5, 6}))
	almostEq(t, out, []float64{3, 4}, 0)
}

func TestMeanEmptyZeroes(t *testing.T) {
	out := []float64{7, 7}
	Mean{}.Aggregate(out, nil)
	almostEq(t, out, []float64{0, 0}, 0)
}

func TestCoordMedianIgnoresOutlier(t *testing.T) {
	out := make([]float64, 2)
	CoordMedian{}.Aggregate(out, vecs(
		[]float64{1, 1}, []float64{1.1, 0.9}, []float64{1e6, -1e6},
	))
	almostEq(t, out, []float64{1.1, 0.9}, 0)
}

func TestCoordMedianEvenCount(t *testing.T) {
	out := make([]float64, 1)
	CoordMedian{}.Aggregate(out, vecs([]float64{1}, []float64{3}, []float64{2}, []float64{100}))
	almostEq(t, out, []float64{2.5}, 1e-12)
}

func TestTrimmedMeanDropsExtremes(t *testing.T) {
	out := make([]float64, 1)
	TrimmedMean{Trim: 1}.Aggregate(out, vecs(
		[]float64{-1e9}, []float64{1}, []float64{2}, []float64{1e9},
	))
	almostEq(t, out, []float64{1.5}, 1e-12)
}

func TestTrimmedMeanClampsTrim(t *testing.T) {
	out := make([]float64, 1)
	// Trim 5 of 3 vectors would drop everything; clamp keeps the median.
	TrimmedMean{Trim: 5}.Aggregate(out, vecs([]float64{1}, []float64{2}, []float64{50}))
	almostEq(t, out, []float64{2}, 1e-12)
}

func TestKrumRejectsOutlier(t *testing.T) {
	out := make([]float64, 2)
	in := vecs(
		[]float64{1, 0}, []float64{1.05, 0.02}, []float64{0.98, -0.01},
		[]float64{1.02, 0.01}, []float64{-500, 500},
	)
	Krum{F: 1}.Aggregate(out, in)
	// The winner must be one of the honest cluster, never the outlier.
	if out[0] < 0 {
		t.Fatalf("krum selected the outlier: %v", out)
	}
}

func TestNormClipTamesScaleButNotSignFlip(t *testing.T) {
	honest := []float64{1, 0}
	// Scale attack: same direction, huge norm. Clipping to the mean norm
	// keeps the aggregate pointed the honest way.
	out := make([]float64, 2)
	NormClip{}.Aggregate(out, vecs(honest, honest, honest, []float64{1000, 0}))
	if out[0] <= 0 {
		t.Fatalf("normclip failed to tame scale attack: %v", out)
	}
	// Amplified sign-flip: the adversary inflates the mean-norm threshold
	// enough that its negated mass survives clipping and flips the sum.
	NormClip{}.Aggregate(out, vecs(honest, honest, honest, []float64{-1000, 0}))
	if out[0] >= 0 {
		t.Fatalf("normclip unexpectedly defeated amplified sign-flip: %v", out)
	}
}

func TestAggregatorsDoNotMutateInputs(t *testing.T) {
	aggs := []Aggregator{Mean{}, CoordMedian{}, TrimmedMean{Trim: 1}, Krum{F: 1}, NormClip{}}
	for _, a := range aggs {
		in := vecs([]float64{1, 2}, []float64{3, 4}, []float64{-50, 60}, []float64{5, 6})
		want := vecs([]float64{1, 2}, []float64{3, 4}, []float64{-50, 60}, []float64{5, 6})
		out := make([]float64, 2)
		a.Aggregate(out, in)
		for w := range in {
			for i := range in[w] {
				if in[w][i] != want[w][i] {
					t.Fatalf("%s mutated input vec %d", a.Name(), w)
				}
			}
		}
	}
}

func TestAggregatorFLOPsPositiveAndOrdered(t *testing.T) {
	n, d := 8, 1000
	mean := Mean{}.FLOPs(n, d)
	med := CoordMedian{}.FLOPs(n, d)
	krum := Krum{F: 1}.FLOPs(n, d)
	if mean <= 0 || med <= 0 || krum <= 0 {
		t.Fatalf("non-positive FLOPs: mean=%d med=%d krum=%d", mean, med, krum)
	}
	if krum <= mean {
		t.Fatalf("krum (%d) should cost more than mean (%d)", krum, mean)
	}
}

func TestAggregatorsDeterministicUnderConcurrency(t *testing.T) {
	in := make([][]float64, 8)
	for w := range in {
		v := make([]float64, 64)
		for i := range v {
			v[i] = math.Sin(float64(w*64+i)) * float64(1+w)
		}
		in[w] = v
	}
	for _, a := range []Aggregator{Mean{}, CoordMedian{}, TrimmedMean{Trim: 1}, Krum{F: 1}, NormClip{}} {
		ref := make([]float64, 64)
		a.Aggregate(ref, in)
		var wg sync.WaitGroup
		outs := make([][]float64, 16)
		for g := range outs {
			outs[g] = make([]float64, 64)
			wg.Add(1)
			go func(dst []float64) {
				defer wg.Done()
				a.Aggregate(dst, in)
			}(outs[g])
		}
		wg.Wait()
		for g := range outs {
			for i := range ref {
				if outs[g][i] != ref[i] {
					t.Fatalf("%s: concurrent run %d diverged at %d", a.Name(), g, i)
				}
			}
		}
	}
}

func TestReputationQuarantinesPersistentOffender(t *testing.T) {
	rep := NewReputation(ReputationConfig{})
	workers := []int{0, 1, 2, 3}
	for round := 0; round < 12; round++ {
		rep.BeginRound(round)
		// Worker 3 is 50x farther from the aggregate than everyone else.
		rep.Observe(workers, []float64{1, 1.1, 0.9, 50})
	}
	led := rep.Ledger()
	if got := led.OffenderString(); got != "3" {
		t.Fatalf("offenders = %q, want \"3\"", got)
	}
	if led.Quarantines() < 1 {
		t.Fatalf("expected at least one quarantine event")
	}
	if !rep.Quarantined(3) && led.Readmissions() == 0 {
		t.Fatalf("worker 3 neither quarantined nor readmitted")
	}
}

func TestReputationReadmitsAfterProbation(t *testing.T) {
	rep := NewReputation(ReputationConfig{Probation: 3, Warmup: 0, Patience: 1})
	workers := []int{0, 1, 2}
	// Two bad rounds for worker 2, then honest behaviour.
	for round := 0; round < 10; round++ {
		rep.BeginRound(round)
		d := []float64{1, 1, 1}
		if round < 2 {
			d[2] = 100
		}
		rep.Observe(workers, d)
	}
	led := rep.Ledger()
	if led.Quarantines() != 1 {
		t.Fatalf("quarantines = %d, want 1", led.Quarantines())
	}
	if led.Readmissions() != 1 {
		t.Fatalf("readmissions = %d, want 1 (probation should expire)", led.Readmissions())
	}
	if rep.Quarantined(2) {
		t.Fatalf("worker 2 should be readmitted by round 9")
	}
}

// TestReputationProbationExit pins the full probation lifecycle round by
// round: a transient offender is quarantined exactly when its streak
// reaches Patience, sits out exactly Probation rounds, is readmitted by
// BeginRound with score and streak reset, and a single post-readmission
// spike (streak 1 < Patience) never re-quarantines it.
func TestReputationProbationExit(t *testing.T) {
	rep := NewReputation(ReputationConfig{Probation: 4, Warmup: 0, Patience: 2})
	workers := []int{0, 1, 2}
	for round := 0; round < 15; round++ {
		rep.BeginRound(round)
		// Offense rounds 0-1 trigger quarantine at round 1 (streak =
		// Patience), so the exclusion window is rounds 2-5 and
		// BeginRound(6) readmits.
		if got, want := rep.Quarantined(2), round >= 2 && round < 6; got != want {
			t.Fatalf("round %d: Quarantined(2) = %v, want %v", round, got, want)
		}
		d := []float64{1, 1, 1}
		switch {
		case round < 2:
			d[2] = 100 // persistent offense: quarantined on the 2nd
		case round == 7:
			d[2] = 30 // one spike after readmission: streak 1, forgiven
		}
		rep.Observe(workers, d)
	}
	led := rep.Ledger()
	evs := led.Events()
	if len(evs) != 2 {
		t.Fatalf("ledger has %d events, want 2 (quarantine+readmit): %v", len(evs), evs)
	}
	if evs[0].Kind != EventQuarantine || evs[0].Worker != 2 || evs[0].Round != 1 {
		t.Fatalf("first event %+v, want quarantine of worker 2 at round 1", evs[0])
	}
	if evs[1].Kind != EventReadmit || evs[1].Worker != 2 || evs[1].Round != 6 {
		t.Fatalf("second event %+v, want readmit of worker 2 at round 6", evs[1])
	}
	if led.Quarantines() != 1 || led.Readmissions() != 1 {
		t.Fatalf("quarantines=%d readmissions=%d, want 1 and 1 (no re-quarantine)",
			led.Quarantines(), led.Readmissions())
	}
	if rep.Quarantined(2) {
		t.Fatal("worker 2 still quarantined at the end of the run")
	}
}

func TestReputationNoFalsePositivesWhenHonest(t *testing.T) {
	rep := NewReputation(ReputationConfig{})
	workers := []int{0, 1, 2, 3}
	for round := 0; round < 20; round++ {
		rep.BeginRound(round)
		rep.Observe(workers, []float64{1, 1.05, 0.95, 1.02})
	}
	if n := rep.Ledger().Quarantines(); n != 0 {
		t.Fatalf("honest run produced %d quarantines", n)
	}
	if fp := rep.Ledger().Fingerprint(); fp != (&Ledger{}).Fingerprint() {
		t.Fatalf("empty ledger fingerprint mismatch")
	}
}

func TestLedgerFingerprintReplays(t *testing.T) {
	build := func() *Reputation {
		rep := NewReputation(ReputationConfig{Probation: 2, Warmup: 0, Patience: 1})
		for round := 0; round < 8; round++ {
			rep.BeginRound(round)
			rep.Observe([]int{0, 1, 2}, []float64{1, 1, float64(10 * (round%3 + 1))})
		}
		return rep
	}
	a, b := build(), build()
	if a.Ledger().Fingerprint() != b.Ledger().Fingerprint() {
		t.Fatalf("same scenario produced different ledger fingerprints")
	}
	if len(a.Ledger().Events()) == 0 {
		t.Fatalf("scenario should have produced events")
	}
}

func TestNilSafety(t *testing.T) {
	var rep *Reputation
	rep.BeginRound(0)
	rep.Observe([]int{0}, []float64{1})
	if rep.Quarantined(0) {
		t.Fatalf("nil reputation quarantined a worker")
	}
	var led *Ledger
	if led.Fingerprint() != (&Ledger{}).Fingerprint() {
		t.Fatalf("nil ledger fingerprint differs from empty")
	}
	if led.Offenders() != nil || led.Quarantines() != 0 || led.OffenderString() != "" {
		t.Fatalf("nil ledger not empty")
	}
}
