package sim

import (
	"fmt"
	"sort"

	"dlsys/internal/fp"
)

// Actor is a named participant in the simulation — "trainer", "serve",
// "chaos". Actors exist so that composed experiments can attribute every
// event on the shared timeline to the subsystem that scheduled it: the
// kernel log (and hence the replay fingerprint) records the actor name on
// each execution, and per-actor fired counts let invariant checks assert
// that, say, the fault scheduler actually drove the windows it declared.
type Actor struct {
	k     *Kernel
	name  string
	fired int
	fold  fp.Prefolded // name's fold, so Step folds it in one multiply
}

// Actor returns the named actor, creating it on first use. Actor identity
// is per-kernel; the same name always returns the same *Actor.
func (k *Kernel) Actor(name string) *Actor {
	if a, ok := k.actors[name]; ok {
		return a
	}
	a := &Actor{k: k, name: name, fold: fp.Prefold(name)}
	k.actors[name] = a
	return a
}

// Actors returns the registered actor names in sorted order.
func (k *Kernel) Actors() []string {
	names := make([]string, 0, len(k.actors))
	for n := range k.actors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the actor's name.
func (a *Actor) Name() string { return a.name }

// Fired returns how many of this actor's events have executed.
func (a *Actor) Fired() int { return a.fired }

// At schedules fn at absolute time t under this actor's name. The event
// carries the actor, so running it counts the firing without a lookup.
func (a *Actor) At(t float64, fn func(stamp float64)) {
	a.k.schedule(event{t: t, actor: a, name: a.name, fn: fn})
}

// After schedules fn d seconds from now under this actor's name.
func (a *Actor) After(d float64, fn func(stamp float64)) {
	a.At(a.k.later(d), fn)
}

// Every schedules fn under this actor's name to first run at start and
// then every period seconds, for as long as fn returns true. Each firing
// is stamped with its scheduled instant; the next firing is scheduled
// relative to that stamp (fixed-rate, not fixed-delay), so a handler that
// advances the clock does not skew the cadence. A non-positive period
// panics: it would loop forever at one instant. The chain's state is the
// one allocation it makes.
func (a *Actor) Every(start, period float64, fn func(now float64) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every(%q) with non-positive period %g", a.name, period))
	}
	a.k.schedule(event{t: start, actor: a, name: a.name, per: &periodic{fn: fn, period: period}})
}
