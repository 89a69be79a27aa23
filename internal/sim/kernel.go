// Package sim is the deterministic discrete-event simulation kernel that
// the distributed-training and serving simulators share. The tutorial's
// systems half argues that reliability is a property of the composed stack,
// not of individually hardened components; composing those components
// requires them to agree on what time it is. The kernel provides exactly
// that: one virtual clock, a priority-queue event loop with stable
// tie-breaking, and named actors, so that training rounds, request
// arrivals, and scheduled fault windows interleave on a single timeline and
// two runs of the same scenario are bit-identical.
//
// Determinism contract:
//
//   - Events are ordered by (time, sequence number). The sequence number is
//     assigned at scheduling time, so two events scheduled for the same
//     instant always execute in the order they were scheduled, regardless
//     of map iteration or goroutine interleavings upstream.
//   - Handlers run on the caller's goroutine; the kernel itself spawns
//     nothing and holds no locks. Concurrency inside a handler (e.g. the
//     parallel gradient computation in internal/distributed) is the
//     handler's business and must not touch the kernel.
//   - Advance models work performed *inside* an event (a coarse-grained
//     style of DES): a handler advances the clock by the simulated duration
//     of its computation, and later events are popped at
//     max(clock, event time), i.e. an event whose scheduled instant has
//     been overtaken still runs, stamped with its own scheduled time.
//
// The kernel log (actor, stamp, seq of every executed event) feeds a
// replay fingerprint, giving composed experiments such as X10 a fourth
// fingerprint to cross-check beyond metrics, traces, and ledgers.
package sim

import (
	"fmt"

	"dlsys/internal/fp"
)

// Clock is the read-only view of simulated time that components take as a
// dependency. *Kernel satisfies it; so does any fixed stand-in in tests.
type Clock interface {
	// Now returns the current simulated time in seconds.
	Now() float64
}

// Event is a handle to one scheduled occurrence, returned by the
// scheduling methods and kept by callers only to Cancel it. It is a small
// value, not the queue entry itself: the queue stores events by value, so
// scheduling allocates nothing. The zero Event is a handle to nothing.
type Event struct {
	k   *Kernel
	seq uint64    // a one-shot's sequence number
	per *periodic // an Every chain's shared state; nil for one-shots
}

// Cancel stops the event from running: a one-shot is skipped when popped,
// and a periodic event skips its pending firing and is never rescheduled.
// Cancelling the zero handle, or a one-shot that has already run, is a
// no-op. Cancelled events still consume their queue slot but do not
// appear in the execution log or fingerprint.
func (e Event) Cancel() {
	switch {
	case e.per != nil:
		e.per.canceled = true
	case e.k != nil:
		// Sequence numbers are never reused, so a mark for a one-shot
		// that already ran matches nothing later.
		if e.k.canceled == nil {
			e.k.canceled = map[uint64]struct{}{}
		}
		e.k.canceled[e.seq] = struct{}{}
	}
}

// periodic is the state an Every chain keeps across its firings, allocated
// once per Every call; its handle's Cancel sets canceled.
type periodic struct {
	fn       func(now float64) bool
	period   float64
	canceled bool
}

// event is one queue entry. A one-shot carries fn, a periodic firing per.
// actor is nil when the event was scheduled by name through Kernel.At; the
// name is then resolved to an actor when the event runs.
type event struct {
	t     float64
	seq   uint64
	actor *Actor
	name  string
	fn    func(stamp float64)
	per   *periodic
}

// before orders events by (t, seq), a total order since sequence numbers
// are unique.
func (e *event) before(o *event) bool {
	return e.t < o.t || (e.t == o.t && e.seq < o.seq)
}

// eventQueue is a binary min-heap of events stored by value.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the handler reference
	h = h[:n]
	*q = h
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}

// Kernel is the discrete-event loop: a virtual clock plus a priority queue
// of pending events. Not safe for concurrent use — drive it from one
// goroutine (handlers may fan out internally as long as they rejoin before
// returning).
type Kernel struct {
	now       float64
	seq       uint64
	queue     eventQueue
	canceled  map[uint64]struct{} // sequence numbers of cancelled one-shots
	processed int
	actors    map[string]*Actor
	// log folds every executed event's actor name, scheduled stamp and
	// sequence number, so replay verification costs O(1) memory regardless
	// of run length.
	log fp.Hash
}

// New builds an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{actors: map[string]*Actor{}, log: fp.New()}
}

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Processed returns how many events have executed so far (cancelled events
// excluded).
func (k *Kernel) Processed() int { return k.processed }

// Pending returns how many events are queued (including cancelled ones not
// yet popped).
func (k *Kernel) Pending() int { return len(k.queue) }

// At schedules fn to run at absolute time t, stamped with t. The time may
// lie behind the current clock: with coarse-grained handlers that Advance
// the clock past other components' scheduled instants, an overtaken event
// simply becomes the next to pop and runs with its own (true) stamp — the
// clock itself never rewinds. Fine-grained event chains (request arrivals)
// therefore keep exact timestamps when composed with coarse-grained ones
// (training rounds). The event counts toward the Fired count of the actor
// registered under that name when it runs, even if the actor is
// registered after scheduling.
func (k *Kernel) At(t float64, actor string, fn func(stamp float64)) Event {
	return k.schedule(event{t: t, name: actor, fn: fn})
}

// After schedules fn to run d seconds from the current clock. Negative d
// clamps to zero.
func (k *Kernel) After(d float64, actor string, fn func(stamp float64)) Event {
	return k.At(k.later(d), actor, fn)
}

// later returns the instant d seconds from now, negative d clamped to zero.
func (k *Kernel) later(d float64) float64 {
	if d < 0 {
		d = 0
	}
	return k.now + d
}

// Every schedules fn to first run at start and then every period seconds,
// for as long as fn returns true. Each firing is stamped with its scheduled
// instant; the next firing is scheduled relative to that stamp (fixed-rate,
// not fixed-delay), so a handler that advances the clock does not skew the
// cadence. A non-positive period panics: it would loop forever at one
// instant.
func (k *Kernel) Every(start, period float64, actor string, fn func(now float64) bool) Event {
	return k.every(event{t: start, name: actor}, period, fn)
}

// every queues the first firing of a periodic chain; the chain's state is
// the one allocation it makes.
func (k *Kernel) every(ev event, period float64, fn func(now float64) bool) Event {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every(%q) with non-positive period %g", ev.name, period))
	}
	ev.per = &periodic{fn: fn, period: period}
	return k.schedule(ev)
}

// schedule assigns ev the next sequence number and queues it.
func (k *Kernel) schedule(ev event) Event {
	ev.seq = k.seq
	k.seq++
	k.queue.push(ev)
	return Event{k: k, seq: ev.seq, per: ev.per}
}

// Advance moves the clock forward by d seconds, modelling work performed
// inside the currently running event (or between events, for standalone
// use). Negative d is clamped to zero — simulated time never rewinds.
func (k *Kernel) Advance(d float64) {
	if d > 0 {
		k.now += d
	}
}

// AdvanceTo moves the clock to absolute time t if t is ahead of it.
func (k *Kernel) AdvanceTo(t float64) {
	if t > k.now {
		k.now = t
	}
}

// skip reports whether a popped event was cancelled, forgetting a
// one-shot's mark once it has served.
func (k *Kernel) skip(ev *event) bool {
	if ev.per != nil {
		return ev.per.canceled
	}
	if len(k.canceled) == 0 {
		return false
	}
	if _, ok := k.canceled[ev.seq]; ok {
		delete(k.canceled, ev.seq)
		return true
	}
	return false
}

// Step pops and executes the earliest pending event, returning false when
// the queue is empty. The clock is set to max(now, event time) before the
// handler runs; the handler receives the event's own scheduled stamp.
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		ev := k.queue.pop()
		if k.skip(&ev) {
			continue
		}
		if ev.t > k.now {
			k.now = ev.t
		}
		k.processed++
		a := ev.actor
		if a == nil {
			a = k.actors[ev.name]
		}
		if a != nil {
			a.fired++
			k.log.Prefolded(&a.fold)
		} else {
			k.log.String(ev.name)
		}
		k.log.Float(ev.t)
		k.log.Word(ev.seq)
		if p := ev.per; p != nil {
			if p.fn(ev.t) && !p.canceled {
				// The chain's handle stays valid across reschedules
				// because it points at p, not at a queue entry. The next
				// firing is start+n*period even if the clock has moved
				// past it — fixed-rate, catching up rather than skewing.
				ev.t += p.period
				k.schedule(ev)
			}
			return true
		}
		ev.fn(ev.t)
		return true
	}
	// Every mark left belongs to a one-shot that already ran.
	k.canceled = nil
	return false
}

// Run executes events until the queue drains, returning how many ran.
func (k *Kernel) Run() int {
	n := 0
	for k.Step() {
		n++
	}
	return n
}

// RunUntil executes events whose scheduled time is <= t, then advances the
// clock to t (if ahead) and returns how many events ran. Events scheduled
// beyond t stay queued.
func (k *Kernel) RunUntil(t float64) int {
	n := 0
	for len(k.queue) > 0 {
		// Peek: the heap minimum is index 0.
		if k.skip(&k.queue[0]) {
			k.queue.pop()
			continue
		}
		if k.queue[0].t > t {
			break
		}
		if k.Step() {
			n++
		}
	}
	k.AdvanceTo(t)
	return n
}

// Fingerprint returns the FNV-1a hash of the execution log so far: for
// every executed event, its actor name, scheduled stamp, and sequence
// number. Two runs of the same scenario must produce identical
// fingerprints; any divergence in ordering, timing, or event population
// shows up here even if downstream metrics happen to agree.
func (k *Kernel) Fingerprint() uint64 { return uint64(k.log) }
