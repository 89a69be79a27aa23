// Package serve is a deterministic, simulated-time model-serving layer:
// a Server fronts a fleet of replica workers, each hosting one model
// variant (full precision or a compressed tier) on a device cost model,
// and routes requests through admission control, retries with hedging,
// per-replica circuit breakers, and graceful degradation to cheaper
// tiers. All randomness — arrivals and injected replica faults — comes
// from the order-independent hash streams of internal/fault, so the same
// seed always reproduces the same request ledger, bit for bit.
package serve

import "dlsys/internal/obs"

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

// Breaker states.
const (
	// breakerClosed passes traffic and watches the failure rate.
	breakerClosed breakerState = iota
	// breakerOpen rejects traffic until a cooldown elapses.
	breakerOpen
	// breakerHalfOpen admits a few probe requests; success re-closes,
	// failure re-opens.
	breakerHalfOpen
)

// breakerConfig tunes one replica's circuit breaker. The Server builds
// every breaker from the constants below; tests build smaller ones.
type breakerConfig struct {
	// Window is the sliding window of recent request outcomes consulted
	// for the failure rate.
	Window int
	// MinSamples is how many outcomes the window must hold before the
	// breaker may trip, so one early failure cannot open it.
	MinSamples int
	// FailureRate is the windowed failure fraction at or above which the
	// breaker opens.
	FailureRate float64
	// CooldownS is how long (simulated seconds) the breaker stays open
	// before admitting probes.
	CooldownS float64
	// HalfOpenProbes is how many consecutive probe successes re-close the
	// breaker.
	HalfOpenProbes int
}

// The Server's breaker policy. The cooldown is in base service times.
const (
	breakerWindow      = 16
	breakerMinSamples  = breakerWindow / 2
	breakerFailureRate = 0.5
	breakerCooldown    = 20
	breakerProbes      = 2
)

// breaker guards one replica. It is driven entirely by simulated
// timestamps passed in by the caller, so it is as deterministic as the
// event stream feeding it.
type breaker struct {
	cfg breakerConfig

	state    breakerState
	openedAt float64 // when the breaker last opened

	window []bool // ring of outcomes, true = failure
	head   int
	filled int

	probeOK int // consecutive probe successes while half-open

	opened   int // Closed/HalfOpen -> Open transitions
	reclosed int // HalfOpen -> Closed transitions

	// Optional transition counters, incremented at the exact sites the
	// opened/reclosed tallies change (nil-safe no-ops by default).
	onOpen, onReclose *obs.Counter
}

// newBreaker builds a breaker; cfg.Window must be positive.
func newBreaker(cfg breakerConfig) *breaker {
	return &breaker{cfg: cfg, window: make([]bool, cfg.Window)}
}

// State reports the current automaton state.
func (b *breaker) State() breakerState { return b.state }

// Opened counts how many times the breaker has tripped open.
func (b *breaker) Opened() int { return b.opened }

// Reclosed counts how many times it has recovered to closed.
func (b *breaker) Reclosed() int { return b.reclosed }

// Allow reports whether a request may be sent to the replica at the given
// simulated time. An open breaker whose cooldown has elapsed transitions
// to half-open and admits the probe.
func (b *breaker) Allow(now float64) bool {
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now >= b.openedAt+b.cfg.CooldownS {
			b.state = breakerHalfOpen
			b.probeOK = 0
			return true
		}
		return false
	case breakerHalfOpen:
		return true
	}
	return false
}

// Record feeds one request outcome (observed at simulated time now) into
// the breaker.
func (b *breaker) Record(now float64, ok bool) {
	switch b.state {
	case breakerHalfOpen:
		if !ok {
			b.trip(now)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			b.state = breakerClosed
			b.reclosed++
			b.onReclose.Inc()
			b.resetWindow()
		}
	case breakerClosed:
		b.window[b.head] = !ok
		b.head = (b.head + 1) % len(b.window)
		if b.filled < len(b.window) {
			b.filled++
		}
		if b.filled >= b.cfg.MinSamples && b.failureRate() >= b.cfg.FailureRate {
			b.trip(now)
		}
	case breakerOpen:
		// A late completion from before the trip; the window restarts
		// from scratch on re-close, so drop it.
	}
}

func (b *breaker) trip(now float64) {
	b.state = breakerOpen
	b.openedAt = now
	b.opened++
	b.onOpen.Inc()
	b.resetWindow()
}

// instrument attaches transition counters; nil counters stay no-ops.
func (b *breaker) instrument(onOpen, onReclose *obs.Counter) {
	b.onOpen, b.onReclose = onOpen, onReclose
}

func (b *breaker) resetWindow() {
	b.head, b.filled = 0, 0
}

func (b *breaker) failureRate() float64 {
	fails := 0
	for i := 0; i < b.filled; i++ {
		if b.window[i] {
			fails++
		}
	}
	return float64(fails) / float64(b.filled)
}
