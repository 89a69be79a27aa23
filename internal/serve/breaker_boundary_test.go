package serve

import "testing"

// Boundary behavior of the breaker automaton: failure counts landing
// exactly on the open threshold, the sliding window wrapping over old
// outcomes, and half-open probe arithmetic at its exact limits.
func TestBreakerBoundaries(t *testing.T) {
	cfg := breakerConfig{Window: 4, MinSamples: 4, FailureRate: 0.5, CooldownS: 10, HalfOpenProbes: 2}
	cases := []struct {
		name  string
		drive func(b *breaker)
		state breakerState
	}{
		{
			// 2 failures in a window of 4 is exactly the 0.5 threshold:
			// the trip condition is >=, so it opens.
			name: "failure rate exactly at threshold trips",
			drive: func(b *breaker) {
				for i, ok := range []bool{true, false, true, false} {
					b.Record(float64(i), ok)
				}
			},
			state: breakerOpen,
		},
		{
			// 1 failure in 4 sits below the threshold.
			name: "failure rate below threshold stays closed",
			drive: func(b *breaker) {
				for i, ok := range []bool{true, false, true, true} {
					b.Record(float64(i), ok)
				}
			},
			state: breakerClosed,
		},
		{
			// 2 failures among only 3 samples exceed the rate but not
			// MinSamples: the guard holds the breaker closed.
			name: "min samples guard at window boundary",
			drive: func(b *breaker) {
				for i, ok := range []bool{false, false, true} {
					b.Record(float64(i), ok)
				}
			},
			state: breakerClosed,
		},
		{
			// Window wrap: 4 early successes fill the ring, then 2
			// failures overwrite the oldest entries. The windowed view is
			// [F, F, T, T] — exactly at threshold, so it trips; the
			// pre-wrap successes no longer dilute the rate.
			name: "sliding window wrap forgets old successes",
			drive: func(b *breaker) {
				for i := 0; i < 4; i++ {
					b.Record(float64(i), true)
				}
				b.Record(4, false)
				b.Record(5, false)
			},
			state: breakerOpen,
		},
		{
			// Half-open: exactly HalfOpenProbes-1 successes are not
			// enough to re-close.
			name: "one probe short of re-close stays half-open",
			drive: func(b *breaker) {
				trip(b)
				b.Allow(100) // cooldown elapsed: open -> half-open
				b.Record(100, true)
			},
			state: breakerHalfOpen,
		},
		{
			// Exactly HalfOpenProbes successes re-close.
			name: "exact probe count re-closes",
			drive: func(b *breaker) {
				trip(b)
				b.Allow(100)
				b.Record(100, true)
				b.Record(101, true)
			},
			state: breakerClosed,
		},
		{
			// A probe failure after a probe success re-opens immediately —
			// probe successes must be consecutive.
			name: "probe failure re-opens regardless of earlier successes",
			drive: func(b *breaker) {
				trip(b)
				b.Allow(100)
				b.Record(100, true)
				b.Record(101, false)
			},
			state: breakerOpen,
		},
		{
			// One tick before the cooldown elapses the breaker still
			// rejects; at exactly openedAt+CooldownS it probes.
			name: "cooldown boundary is inclusive",
			drive: func(b *breaker) {
				trip(b) // opens at t=3
				if b.Allow(3 + cfgCooldown - 0.001) {
					panic("allowed before cooldown")
				}
				b.Allow(3 + cfgCooldown)
			},
			state: breakerHalfOpen,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBreaker(cfg)
			tc.drive(b)
			if got := b.State(); got != tc.state {
				t.Fatalf("state = %v, want %v", got, tc.state)
			}
		})
	}
}

const cfgCooldown = 10.0

// trip drives a fresh breaker open with an exactly-at-threshold window
// ending at t=3.
func trip(b *breaker) {
	for i, ok := range []bool{true, false, true, false} {
		b.Record(float64(i), ok)
	}
}

// TestBreakerWindowWrapNoDoubleCount drives many wraps and checks the
// failure rate is always computed over at most Window outcomes: a long
// alternating stream at rate 0.5 with threshold 0.75 must never trip no
// matter how often the ring wraps.
func TestBreakerWindowWrapNoDoubleCount(t *testing.T) {
	b := newBreaker(breakerConfig{Window: 4, MinSamples: 4, FailureRate: 0.75, CooldownS: 10})
	for i := 0; i < 1000; i++ {
		b.Record(float64(i), i%2 == 0)
		if b.State() != breakerClosed {
			t.Fatalf("alternating stream tripped the breaker at outcome %d", i)
		}
	}
	if b.Opened() != 0 {
		t.Fatalf("breaker opened %d times", b.Opened())
	}
}
