package fault

import (
	"strconv"

	"dlsys/internal/invalid"
)

// Time-windowed fault schedules: the declarative layer that lets a composed
// experiment script a "day in production" — crash worker 3 at t=120s, an
// ×8 flash crowd for t∈[300,360), a Byzantine coalition active after
// t=600, a numerical-fault burst at t=900. Windows are the only way a
// fault fires: a flat per-round rate is an always-on window (see Rate). A
// schedule is a list of Windows attached to Config.Schedule; the injector
// resolves which windows are active at the simulated instant of each draw,
// either from an attached Clock (SetClock, used by the round-driven
// training simulator) or from the explicit timestamps that the serving
// simulator already threads through every draw.
//
// Determinism holds: window activity is a pure function of the draw's
// timestamp, and the Bernoulli draw itself uses the
// (seed, kind, worker, step, attempt) hash stream, so scheduled scenarios
// replay bit-identically and remain order-independent across concurrent
// workers.

// Clock is the read-only simulated-time source the injector consults for
// draws that do not carry an explicit timestamp. *sim.Kernel satisfies it
// structurally; fault deliberately does not import sim so the dependency
// points one way (sim-aware components hand their kernel down).
type Clock interface {
	Now() float64
}

// Window is one declarative fault rule: during [StartS, EndS) the given
// Kind fires for the listed workers with probability Prob per draw, as
// hard as Factor says. Fields:
//
//   - Kind: any injectable kind.
//   - Workers: the worker (replica, tenant, or link source) ids the window
//     applies to; nil means all. A partition window must leave it nil,
//     since a partition cuts the whole job.
//   - StartS, EndS: the active interval, in simulated seconds, inclusive
//     of start and exclusive of end. EndS == 0 means open-ended (active
//     from StartS onwards). A window with EndS == StartS (nonzero) has
//     zero length and never fires — a legal no-op, so generated schedules
//     need not special-case empty intervals.
//   - Prob: per-draw probability while active. Byzantine kinds read 0 as 1
//     (the adversary attacks every round); arrival, retry-storm and
//     brownout windows ignore it; every other kind needs it above 0.
//   - Factor: how hard the fault fires; 0 takes the kind's default. Only
//     the ten kinds below read it, so Validate rejects a nonzero Factor on
//     any other kind.
//
// What Factor means, by kind (a straggle, lr-spike or link-slow product
// at or below 1 also takes the default):
//
//   - straggle: compute-time multiplier (default 8)
//   - lr-spike: learning-rate multiplier (default 64)
//   - link-slow: hop-time multiplier (default 8)
//   - sign-flip: amplification of the negated gradient (default 100)
//   - scale-attack: gradient multiplier (default 100)
//   - drift-attack: per-coordinate magnitude of the bias (default 1.5)
//   - collude: amplification of the coalition's gradient (default 50)
//   - arrival: arrival-rate multiplier (required above 0)
//   - retry-storm: retry-aggression multiplier (required above 1)
//   - brownout: service-time multiplier (required above 1)
//
// A draw resolves its kind's windows once, at its instant: the explicit
// time ChanceAt, FactorAt and ArrivalGapFor take, else the attached
// clock's, else t = 0, so an injector without a clock fires the windows
// active at 0. Overlapping windows of one kind fire with probability
// 1−∏(1−pᵢ) (a lone window at exactly its Prob) and multiply their
// Factors. Byzantine windows do not combine: a worker mounts the attack of
// the first listed active Byzantine window whose draw fires, at that
// window's Factor.
type Window struct {
	Kind    Kind
	Workers []int
	StartS  float64
	EndS    float64
	Prob    float64
	Factor  float64
}

// activeAt reports whether the window covers worker at time t.
func (w *Window) activeAt(worker int, t float64) bool {
	if t < w.StartS {
		return false
	}
	if w.EndS != 0 && t >= w.EndS {
		return false
	}
	if w.Workers == nil {
		return true
	}
	for _, id := range w.Workers {
		if id == worker {
			return true
		}
	}
	return false
}

// readsFactor reports whether windows of the kind scale by their Factor.
func readsFactor(k Kind) bool {
	switch k {
	case KindStraggle, KindLRSpike, KindLinkSlow, KindArrival, KindRetryStorm, KindBrownout:
		return true
	}
	return IsByzantineKind(k)
}

// Validate checks every window: finite fields, a known kind, a start at or
// after 0 and an end at or after it, a probability in [0, 1] and above 0
// where the kind fires by probability alone, non-negative worker ids and
// none on a partition window (PartitionAt draws one cut for the whole
// job, so a list would never be read), and a Factor only on kinds that
// read one. NaN and ±Inf are rejected first, naming the window's field,
// because every range comparison below lets NaN through.
func (c Config) Validate() error {
	for i, w := range c.Schedule {
		at := "Schedule[" + strconv.Itoa(i) + "]."
		if err := invalid.Finite("fault", invalid.F(at+"StartS", w.StartS), invalid.F(at+"EndS", w.EndS),
			invalid.F(at+"Prob", w.Prob), invalid.F(at+"Factor", w.Factor)); err != nil {
			return err
		}
		if w.Kind < KindCrash || w.Kind >= kindEnd {
			return invalid.New("fault", "Schedule", "window %d has unknown fault kind %d", i, w.Kind)
		}
		if w.StartS < 0 {
			return invalid.New("fault", "Schedule", "window %d start %g is negative", i, w.StartS)
		}
		if w.EndS != 0 && w.EndS < w.StartS {
			return invalid.New("fault", "Schedule", "window %d ends at %g, before it starts", i, w.EndS)
		}
		if w.Prob < 0 || w.Prob > 1 {
			return invalid.New("fault", "Schedule", "window %d probability %g out of [0,1]", i, w.Prob)
		}
		for _, id := range w.Workers {
			if id < 0 {
				return invalid.New("fault", "Schedule", "window %d worker id %d is negative", i, id)
			}
		}
		if w.Kind == KindPartition && w.Workers != nil {
			return invalid.New("fault", at+"Workers", "%v set on a partition window, which cuts the whole job", w.Workers)
		}
		switch {
		case w.Kind == KindArrival:
			if w.Factor <= 0 {
				return invalid.New("fault", "Schedule", "arrival window %d needs a positive rate Factor, got %g", i, w.Factor)
			}
		case w.Kind == KindRetryStorm:
			if w.Factor <= 1 {
				return invalid.New("fault", "Schedule",
					"retry-storm window %d needs a Factor > 1 (retry aggression multiplier), got %g", i, w.Factor)
			}
		case w.Kind == KindBrownout:
			if w.Factor <= 1 {
				return invalid.New("fault", "Schedule",
					"brownout window %d needs a Factor > 1 (service-time multiplier), got %g", i, w.Factor)
			}
		case IsByzantineKind(w.Kind):
			// Prob 0 attacks every round.
		default:
			if w.Prob == 0 {
				return invalid.New("fault", "Schedule",
					"window %d probability is zero (%v windows need Prob > 0)", i, w.Kind)
			}
		}
		if w.Factor < 0 {
			return invalid.New("fault", "Schedule", "window %d factor %g is negative", i, w.Factor)
		}
		if w.Factor != 0 && !readsFactor(w.Kind) {
			return invalid.New("fault", at+"Factor", "%g set on a %v window, which reads no Factor", w.Factor, w.Kind)
		}
	}
	return nil
}

// SetClock attaches a simulated-time source for draws that do not carry an
// explicit timestamp (the round-driven training path). Call it once,
// before the injector is shared across goroutines; without a clock those
// draws resolve at t = 0.
func (i *Injector) SetClock(c Clock) {
	if i != nil {
		i.clock = c
	}
}

// now is the instant a draw without an explicit timestamp resolves at:
// the attached clock's, else 0.
func (i *Injector) now() float64 {
	if i == nil || i.clock == nil {
		return 0
	}
	return i.clock.Now()
}

// resolve folds every window of the kind active for worker at t: the
// probability that at least one fires, accumulated as q ← q + p − q·p so
// that a lone window gives exactly its Prob, and the product of their
// nonzero Factors (1 when none sets one).
func (i *Injector) resolve(kind Kind, worker int, t float64) (prob, factor float64) {
	factor = 1
	if i == nil {
		return 0, factor
	}
	for j := range i.cfg.Schedule {
		w := &i.cfg.Schedule[j]
		if w.Kind != kind || !w.activeAt(worker, t) {
			continue
		}
		prob += w.Prob - prob*w.Prob
		if w.Factor > 0 {
			factor *= w.Factor
		}
	}
	return prob, factor
}

// ChanceAt reports whether the event of the given kind fires at (worker,
// step, attempt) under the windows of the kind active for worker at the
// instant t. Components that track their own absolute timestamps (the
// serving simulator) call it directly; the kind-specific helpers call it
// at the injector's own instant.
func (i *Injector) ChanceAt(kind Kind, worker, step, attempt int, t float64) bool {
	p, _ := i.resolve(kind, worker, t)
	return i.Chance(kind, worker, step, attempt, p)
}

// FactorAt returns the product of the Factors of every window of the kind
// active for worker at t (1 when none is active or none sets a factor).
func (i *Injector) FactorAt(kind Kind, worker int, t float64) float64 {
	_, f := i.resolve(kind, worker, t)
	return f
}

// scaled is the draw of a multiplier-shaped kind at the injector's instant:
// windows are matched by worker and the draw is keyed (key, step), and it
// returns 1 when nothing fires, else the active windows' factor, or def
// when that factor is at most 1.
func (i *Injector) scaled(kind Kind, worker, key, step int, def float64) float64 {
	p, f := i.resolve(kind, worker, i.now())
	if !i.Chance(kind, key, step, 0, p) {
		return 1
	}
	if f <= 1 {
		return def
	}
	return f
}

// ArrivalGapAt draws the deterministic inter-arrival gap before request id
// when the previous arrival happened at time t: an exponential variate
// whose mean is the base mean divided by the product of the arrival-window
// factors active at t. A flash-crowd window with Factor 8 therefore
// multiplies the arrival rate by 8 for its duration.
func (i *Injector) ArrivalGapAt(id int, mean, t float64) float64 {
	return i.ArrivalGapFor(0, id, mean, t)
}

// ArrivalGapFor is ArrivalGapAt for a specific arrival stream (worker is
// the stream id — a tenant, in the multi-tenant serving fleet). Arrival
// windows listing specific Workers compress only those streams' gaps, so a
// flash crowd can target one tenant.
func (i *Injector) ArrivalGapFor(worker, id int, mean, t float64) float64 {
	if i == nil || mean <= 0 {
		return 0
	}
	_, f := i.resolve(KindArrival, worker, t)
	return i.Exp(KindArrival, worker, id, 0, mean/f)
}

// byzantineAt returns the first listed Byzantine window active for the
// worker at the injector's instant whose draw fires at the round, or nil
// when none does. The window's kind selects the attack and its Factor the
// magnitude.
func (i *Injector) byzantineAt(worker, round int) *Window {
	if i == nil {
		return nil
	}
	t := i.now()
	for j := range i.cfg.Schedule {
		w := &i.cfg.Schedule[j]
		if !IsByzantineKind(w.Kind) || !w.activeAt(worker, t) {
			continue
		}
		p := w.Prob
		if p == 0 {
			p = 1
		}
		if i.Chance(w.Kind, worker, round, 0, p) {
			return w
		}
	}
	return nil
}
