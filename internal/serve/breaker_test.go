package serve

import "testing"

func newTestBreaker() *breaker {
	return newBreaker(breakerConfig{
		Window: 8, MinSamples: 4, FailureRate: 0.5, CooldownS: 10, HalfOpenProbes: 2,
	})
}

func TestBreakerStaysClosedUnderSuccess(t *testing.T) {
	b := newTestBreaker()
	for i := 0; i < 50; i++ {
		if !b.Allow(float64(i)) {
			t.Fatal("closed breaker rejected traffic")
		}
		b.Record(float64(i), true)
	}
	if b.State() != breakerClosed || b.Opened() != 0 {
		t.Fatalf("state %v opened %d", b.State(), b.Opened())
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	b := newTestBreaker()
	// Two successes then failures: trips once the windowed rate hits 1/2
	// with at least MinSamples outcomes.
	b.Record(0, true)
	b.Record(1, true)
	b.Record(2, false)
	if b.State() != breakerClosed {
		t.Fatal("tripped below MinSamples")
	}
	b.Record(3, false)
	if b.State() != breakerOpen {
		t.Fatalf("state %v after 2/4 failures", b.State())
	}
	if b.Opened() != 1 {
		t.Fatalf("opened %d", b.Opened())
	}
	if b.Allow(4) {
		t.Fatal("open breaker admitted traffic before cooldown")
	}
}

func TestBreakerMinSamplesGuard(t *testing.T) {
	b := newTestBreaker()
	// Failures below MinSamples must not trip the breaker, even at a
	// 100% windowed failure rate.
	b.Record(0, false)
	b.Record(1, false)
	b.Record(2, false)
	if b.State() != breakerClosed {
		t.Fatalf("state %v below MinSamples", b.State())
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b := newTestBreaker()
	for i := 0; i < 4; i++ {
		b.Record(float64(i), false)
	}
	if b.State() != breakerOpen {
		t.Fatal("not open")
	}
	// Cooldown is 10s from the trip at t=3.
	if b.Allow(12.9) {
		t.Fatal("admitted before cooldown elapsed")
	}
	if !b.Allow(13.1) {
		t.Fatal("probe rejected after cooldown")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state %v", b.State())
	}
	b.Record(13.5, true)
	if b.State() != breakerHalfOpen {
		t.Fatal("closed after one probe, want two")
	}
	b.Record(14.0, true)
	if b.State() != breakerClosed {
		t.Fatalf("state %v after 2 probe successes", b.State())
	}
	if b.Reclosed() != 1 {
		t.Fatalf("reclosed %d", b.Reclosed())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := newTestBreaker()
	for i := 0; i < 4; i++ {
		b.Record(float64(i), false)
	}
	if !b.Allow(20) {
		t.Fatal("probe rejected")
	}
	b.Record(20.5, false)
	if b.State() != breakerOpen {
		t.Fatalf("state %v after failed probe", b.State())
	}
	if b.Opened() != 2 {
		t.Fatalf("opened %d", b.Opened())
	}
	// The new cooldown restarts from the re-trip.
	if b.Allow(25) {
		t.Fatal("admitted before the fresh cooldown elapsed")
	}
	if !b.Allow(31) {
		t.Fatal("probe rejected after fresh cooldown")
	}
}

func TestBreakerWindowResetsAfterRecovery(t *testing.T) {
	b := newTestBreaker()
	for i := 0; i < 4; i++ {
		b.Record(float64(i), false)
	}
	b.Allow(20)
	b.Record(20, true)
	b.Record(21, true)
	if b.State() != breakerClosed {
		t.Fatal("not reclosed")
	}
	// The pre-trip failures must not linger: two fresh failures alone
	// (2/2 rate but below MinSamples) must not trip.
	b.Record(22, false)
	b.Record(23, false)
	b.Record(24, true)
	if b.State() != breakerClosed {
		t.Fatal("stale window outcomes survived recovery")
	}
}
