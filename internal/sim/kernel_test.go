package sim

import (
	"math"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []string
	k.At(3, "c", func(float64) { order = append(order, "c") })
	k.At(1, "a", func(float64) { order = append(order, "a") })
	k.At(2, "b", func(float64) { order = append(order, "b") })
	if n := k.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("clock at %g after run, want 3", k.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, "tie", func(float64) { order = append(order, i) })
	}
	k.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("same-time events ran in order %v, want scheduling order", order)
		}
	}
}

func TestStampIsScheduledTime(t *testing.T) {
	k := New()
	var stamps []float64
	// The first event advances the clock past the second's scheduled time;
	// the second must still run, stamped with its own instant.
	k.At(1, "w", func(stamp float64) {
		stamps = append(stamps, stamp)
		k.Advance(10)
	})
	k.At(2, "w", func(stamp float64) { stamps = append(stamps, stamp) })
	k.Run()
	if stamps[0] != 1 || stamps[1] != 2 {
		t.Fatalf("stamps %v, want [1 2]", stamps)
	}
	if k.Now() != 11 {
		t.Fatalf("clock %g, want 11 (advance dominates later stamp)", k.Now())
	}
}

// TestPastSchedulingKeepsStamp pins the composition contract: an event
// scheduled behind the clock (a fine-grained chain overtaken by a
// coarse-grained handler's Advance) runs next, with its true stamp, before
// anything scheduled later — and the clock never rewinds for it.
func TestPastSchedulingKeepsStamp(t *testing.T) {
	k := New()
	k.Advance(100)
	var order []float64
	k.At(200, "future", func(s float64) { order = append(order, s) })
	k.At(5, "late", func(s float64) { order = append(order, s) })
	k.Run()
	if len(order) != 2 || order[0] != 5 || order[1] != 200 {
		t.Fatalf("execution stamps %v, want [5 200] (past event first, true stamp)", order)
	}
	if k.Now() != 200 {
		t.Fatalf("clock %g, want 200 (never rewound by the past event)", k.Now())
	}
}

func TestAdvanceNeverRewinds(t *testing.T) {
	k := New()
	k.Advance(5)
	k.Advance(-3)
	if k.Now() != 5 {
		t.Fatalf("clock %g, want 5 (negative/backward moves ignored)", k.Now())
	}
}

func TestPeriodicStopsWhenFalse(t *testing.T) {
	k := New()
	var stamps []float64
	k.Actor("tick").Every(0, 2.5, func(now float64) bool {
		stamps = append(stamps, now)
		return len(stamps) < 3
	})
	k.Run()
	want := []float64{0, 2.5, 5}
	if len(stamps) != 3 {
		t.Fatalf("fired %d times, want 3", len(stamps))
	}
	for i, w := range want {
		if stamps[i] != w {
			t.Fatalf("stamps %v, want %v", stamps, want)
		}
	}
}

func TestPeriodicNonPositivePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every with period 0 did not panic")
		}
	}()
	New().Actor("bad").Every(0, 0, func(float64) bool { return true })
}

func TestRunUntil(t *testing.T) {
	k := New()
	ran := 0
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		k.At(tt, "w", func(float64) { ran++ })
	}
	if n := k.RunUntil(3); n != 3 {
		t.Fatalf("RunUntil(3) ran %d events, want 3", n)
	}
	if k.Now() != 3 {
		t.Fatalf("clock %g after RunUntil(3), want 3", k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", k.Pending())
	}
	k.Run()
	if ran != 5 {
		t.Fatalf("%d events ran in total, want 5", ran)
	}
}

func TestRunUntilAdvancesPastLastEvent(t *testing.T) {
	k := New()
	k.At(1, "w", func(float64) {})
	k.RunUntil(50)
	if k.Now() != 50 {
		t.Fatalf("clock %g, want 50", k.Now())
	}
}

func TestActors(t *testing.T) {
	k := New()
	a := k.Actor("trainer")
	b := k.Actor("serve")
	if k.Actor("trainer") != a {
		t.Fatal("Actor is not idempotent per name")
	}
	a.At(1, func(float64) {})
	a.After(2, func(float64) {})
	b.At(3, func(float64) {})
	k.Run()
	if a.Fired() != 2 || b.Fired() != 1 {
		t.Fatalf("fired counts trainer=%d serve=%d, want 2 and 1", a.Fired(), b.Fired())
	}
	names := k.Actors()
	if len(names) != 2 || names[0] != "serve" || names[1] != "trainer" {
		t.Fatalf("Actors() = %v, want sorted [serve trainer]", names)
	}
}

// run drives a small mixed scenario and returns the kernel's fingerprint.
func run(t *testing.T) (uint64, int) {
	t.Helper()
	k := New()
	chaos := k.Actor("chaos")
	work := k.Actor("work")
	total := 0.0
	chaos.Every(5, 7, func(now float64) bool {
		work.After(1.5, func(stamp float64) { total += stamp })
		return now < 60
	})
	work.At(0, func(float64) { k.Advance(3) })
	n := k.Run()
	if math.IsNaN(total) {
		t.Fatal("scenario produced NaN")
	}
	return k.Fingerprint(), n
}

func TestReplayFingerprint(t *testing.T) {
	fp1, n1 := run(t)
	fp2, n2 := run(t)
	if fp1 != fp2 || n1 != n2 {
		t.Fatalf("two identical runs diverged: fp %x vs %x, events %d vs %d", fp1, fp2, n1, n2)
	}
	// A perturbed scenario must change the fingerprint.
	k := New()
	k.Actor("chaos").At(1, func(float64) {})
	k.Run()
	if k.Fingerprint() == fp1 {
		t.Fatal("different scenarios produced identical fingerprints")
	}
}

// TestKernelAtCountsLateRegisteredActor pins the attribution rule for
// events scheduled by name: the firing counts toward the actor registered
// under that name when the event runs, not when it was scheduled.
func TestKernelAtCountsLateRegisteredActor(t *testing.T) {
	k := New()
	k.At(1, "late", func(float64) {})
	k.At(2, "late", func(float64) {})
	k.RunUntil(1) // the first runs before the actor exists
	a := k.Actor("late")
	k.Run()
	if a.Fired() != 1 {
		t.Fatalf("late-registered actor fired %d, want 1", a.Fired())
	}
}

// TestStepAllocations is the kernel's allocation contract: scheduling
// and running an event with a prebuilt handler, or firing a periodic
// chain, allocates nothing.
func TestStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	k := New()
	a := k.Actor("w")
	fn := func(float64) {}
	for i := 0; i < 64; i++ {
		a.At(float64(i), fn) // a standing queue, so pops sift
	}
	if n := testing.AllocsPerRun(1000, func() {
		a.At(k.Now()+1, fn)
		k.Step()
	}); n != 0 {
		t.Fatalf("Actor.At + Step made %g allocations, want 0", n)
	}
	k.Run()
	a.Every(k.Now(), 1, func(float64) bool { return true })
	if n := testing.AllocsPerRun(1000, func() { k.Step() }); n != 0 {
		t.Fatalf("a periodic firing made %g allocations, want 0", n)
	}
}
