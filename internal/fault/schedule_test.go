package fault

import (
	"errors"
	"math"
	"testing"

	"dlsys/internal/invalid"
)

// fixedClock pins the injector's simulated time for window tests.
type fixedClock struct{ t float64 }

func (c *fixedClock) Now() float64 { return c.t }

func TestWindowActivation(t *testing.T) {
	inj := NewInjector(Config{Seed: 7, Schedule: []Window{
		{Kind: KindCrash, Workers: []int{3}, StartS: 120, EndS: 130, Prob: 1},
	}})
	clk := &fixedClock{}
	inj.SetClock(clk)

	for _, tt := range []struct {
		t      float64
		worker int
		want   bool
	}{
		{119.9, 3, false}, // before the window
		{120, 3, true},    // inclusive start
		{125, 3, true},
		{125, 2, false}, // worker not listed
		{130, 3, false}, // exclusive end
		{500, 3, false},
	} {
		clk.t = tt.t
		if got := inj.Crashes(tt.worker, 0); got != tt.want {
			t.Errorf("Crashes(worker=%d) at t=%g = %v, want %v", tt.worker, tt.t, got, tt.want)
		}
	}
}

func TestOpenEndedWindow(t *testing.T) {
	inj := NewInjector(Config{Seed: 7, Schedule: []Window{
		{Kind: KindCrash, StartS: 600, Prob: 1}, // EndS 0 = open-ended, all workers
	}})
	clk := &fixedClock{t: 599}
	inj.SetClock(clk)
	if inj.Crashes(0, 0) {
		t.Fatal("open-ended window fired before its start")
	}
	clk.t = 1e9
	if !inj.Crashes(0, 0) {
		t.Fatal("open-ended window inactive long after its start")
	}
}

func TestZeroLengthWindowNeverFires(t *testing.T) {
	cfg := Config{Seed: 7, Schedule: []Window{
		{Kind: KindCrash, StartS: 50, EndS: 50, Prob: 1},
	}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero-length window rejected: %v", err)
	}
	inj := NewInjector(cfg)
	clk := &fixedClock{t: 50}
	inj.SetClock(clk)
	if inj.Crashes(0, 0) {
		t.Fatal("zero-length window fired at its own boundary")
	}
}

// TestOverlappingWindowsCombine checks that overlapping windows of the
// same kind combine probabilities as 1-(1-p1)(1-p2) and multiply factors,
// and that a lone window resolves to exactly its Prob.
func TestOverlappingWindowsCombine(t *testing.T) {
	overlap := []Window{
		{Kind: KindStraggle, StartS: 0, EndS: 100, Prob: 0.5, Factor: 2},
		{Kind: KindStraggle, StartS: 50, EndS: 200, Prob: 0.5, Factor: 3},
	}
	for _, tc := range []struct {
		name         string
		windows      []Window
		at           float64
		prob, factor float64
	}{
		{"overlap", overlap, 75, 0.75, 6},
		{"one of two", overlap, 150, 0.5, 3},
		{"lone window", []Window{{Kind: KindStraggle, Prob: 0.1}}, 0, 0.1, 1},
	} {
		inj := NewInjector(Config{Seed: 7, Schedule: tc.windows})
		prob, factor := inj.resolve(KindStraggle, 0, tc.at)
		if prob != tc.prob || factor != tc.factor {
			t.Errorf("%s: state (%v, %v), want (%v, %v)", tc.name, prob, factor, tc.prob, tc.factor)
		}
	}
	// Straggle draws in the overlap use the combined probability: over many
	// keyed draws roughly 75% should straggle with factor 6.
	inj := NewInjector(Config{Seed: 7, Schedule: overlap})
	inj.SetClock(&fixedClock{t: 75})
	hits := 0
	for step := 0; step < 2000; step++ {
		if f := inj.StraggleFactor(0, step); f > 1 {
			hits++
			if f != 6 {
				t.Fatalf("straggle factor %g in overlap, want 6", f)
			}
		}
	}
	if hits < 1350 || hits > 1650 {
		t.Fatalf("combined straggle rate %d/2000, want ~1500", hits)
	}
}

func TestArrivalWindowScalesRate(t *testing.T) {
	base := NewInjector(Config{Seed: 11})
	crowd := NewInjector(Config{Seed: 11, Schedule: []Window{
		{Kind: KindArrival, StartS: 300, EndS: 360, Factor: 8},
	}})
	var quiet, spike float64
	for id := 0; id < 500; id++ {
		quiet += crowd.ArrivalGapAt(id, 1, 100) // outside the window
		spike += crowd.ArrivalGapAt(id, 1, 330) // inside the flash crowd
	}
	if quiet == 0 || spike == 0 {
		t.Fatal("arrival gaps degenerate")
	}
	if ratio := quiet / spike; ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("flash-crowd rate ratio %g, want exactly 8 (same hash stream, scaled mean)", ratio)
	}
	// Outside any window the gap matches the plain Exp draw.
	if got, want := crowd.ArrivalGapAt(7, 1, 100), base.Exp(KindArrival, 0, 7, 0, 1); got != want {
		t.Fatalf("out-of-window gap %g differs from plain Exp %g", got, want)
	}
}

func TestByzantineWindow(t *testing.T) {
	inj := NewInjector(Config{Seed: 5, Schedule: []Window{
		{Kind: KindSignFlip, Workers: []int{5, 6}, StartS: 600},
	}})
	clk := &fixedClock{t: 100}
	inj.SetClock(clk)
	g := []float64{1, 1}
	if inj.CorruptGradient(g, 5, 0) {
		t.Fatal("Byzantine window attacked before its start")
	}
	clk.t = 700
	if !inj.CorruptGradient(g, 5, 0) {
		t.Fatal("Byzantine window inactive after its start")
	}
	if g[0] != -100 {
		t.Fatalf("sign-flip produced %g, want -100 (default amplification)", g[0])
	}
	if inj.CorruptGradient(g, 0, 0) {
		t.Fatal("worker outside the coalition attacked")
	}
	if !inj.ByzantineFires(6, 3) {
		t.Fatal("coalition member 6 did not fire inside the window")
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"unknown kind", Config{Schedule: []Window{{Kind: kindEnd, Prob: 1}}}, "Schedule"},
		{"negative start", Config{Schedule: []Window{{Kind: KindCrash, StartS: -1, Prob: 1}}}, "Schedule"},
		{"end before start", Config{Schedule: []Window{{Kind: KindCrash, StartS: 10, EndS: 5, Prob: 1}}}, "Schedule"},
		{"probability above one", Config{Schedule: []Window{{Kind: KindCrash, Prob: 1.5}}}, "Schedule"},
		{"zero probability", Config{Schedule: []Window{{Kind: KindCrash}}}, "Schedule"},
		{"negative worker", Config{Schedule: []Window{{Kind: KindCrash, Prob: 1, Workers: []int{-3}}}}, "Schedule"},
		{"arrival without factor", Config{Schedule: []Window{{Kind: KindArrival}}}, "Schedule"},
		{"negative factor", Config{Schedule: []Window{{Kind: KindStraggle, Prob: 1, Factor: -2}}}, "Schedule"},
		{"+Inf brownout factor", Config{Schedule: []Window{{Kind: KindBrownout, Factor: math.Inf(1)}}}, "Schedule[0].Factor"},
		{"factor on a crash window", Config{Schedule: []Window{{Kind: KindStraggle, Prob: 1, Factor: 4}, {Kind: KindCrash, Prob: 1, Factor: 2}}}, "Schedule[1].Factor"},
		{"NaN probability", Config{Schedule: []Window{{Kind: KindCrash, Prob: 1}, {Kind: KindDrop, Prob: math.NaN()}}}, "Schedule[1].Prob"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid schedule", tc.name)
			continue
		}
		var ce *invalid.Error
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T is not a *invalid.Error", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: Field = %q, want %q", tc.name, ce.Field, tc.field)
		}
	}
	// Always-on drops beside a crash window are legal, and so is a Factor
	// on the kinds that read one, link-slow and the Byzantine attacks
	// included.
	for _, ok := range []Config{
		{Schedule: []Window{{Kind: KindDrop, Prob: 0.1}, {Kind: KindCrash, StartS: 10, EndS: 20, Prob: 1}}},
		{Schedule: []Window{{Kind: KindLinkSlow, Prob: 1, Factor: 4}}},
		{Schedule: []Window{{Kind: KindSignFlip, Factor: 3}, {Kind: KindDriftAttack, Prob: 0.5, Factor: 0.5}}},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", ok.Schedule, err)
		}
	}
}

// TestScheduledInjectionDeterminism replays a mixed schedule twice and
// requires the full fault trace to match draw for draw.
func TestScheduledInjectionDeterminism(t *testing.T) {
	trace := func() []float64 {
		inj := NewInjector(Config{Seed: 99, Schedule: []Window{
			{Kind: KindCrash, Workers: []int{3}, StartS: 120, EndS: 130, Prob: 1},
			{Kind: KindStraggle, StartS: 200, EndS: 400, Prob: 0.3, Factor: 4},
			{Kind: KindArrival, StartS: 300, EndS: 360, Factor: 8},
			{Kind: KindSignFlip, Workers: []int{5}, StartS: 600},
			{Kind: KindBatchCorrupt, StartS: 900, EndS: 950, Prob: 0.5},
		}})
		clk := &fixedClock{}
		inj.SetClock(clk)
		var out []float64
		for step := 0; step < 200; step++ {
			clk.t = float64(step * 6)
			for w := 0; w < 8; w++ {
				b := 0.0
				if inj.Crashes(w, step) {
					b = 1
				}
				g := []float64{1}
				if inj.CorruptGradient(g, w, step) {
					b += 2
				}
				if inj.CorruptsBatch(w, step) {
					b += 4
				}
				out = append(out, b, inj.StraggleFactor(w, step), g[0])
			}
			out = append(out, inj.ArrivalGapAt(step, 0.5, clk.t))
		}
		return out
	}
	a, b := trace(), trace()
	fired := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scheduled fault trace diverged at draw %d: %g vs %g", i, a[i], b[i])
		}
		if a[i] != 0 && a[i] != 1 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("schedule injected nothing over the whole trace")
	}
}
