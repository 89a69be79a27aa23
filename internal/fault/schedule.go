package fault

import (
	"strconv"

	"dlsys/internal/invalid"
)

// Time-windowed fault schedules: the declarative layer that lets a composed
// experiment script a "day in production" — crash worker 3 at t=120s, an
// ×8 flash crowd for t∈[300,360), a Byzantine coalition active after
// t=600, a numerical-fault burst at t=900 — instead of driving every class
// with a flat per-round rate. A schedule is a list of Windows attached to
// Config.Schedule; the injector resolves which windows are active at the
// simulated instant of each draw, either from an attached Clock
// (SetClock, used by the round-driven training simulator) or from the
// explicit timestamps that the serving simulator already threads through
// every draw.
//
// Determinism is unchanged: window activity is a pure function of the
// draw's timestamp, and the Bernoulli draw itself uses the same
// (seed, kind, worker, step, attempt) hash stream as rate-driven faults,
// so scheduled scenarios replay bit-identically and remain
// order-independent across concurrent workers.

// Clock is the read-only simulated-time source the injector consults for
// draws that do not carry an explicit timestamp. *sim.Kernel satisfies it
// structurally; fault deliberately does not import sim so the dependency
// points one way (sim-aware components hand their kernel down).
type Clock interface {
	Now() float64
}

// Window is one declarative fault rule: during [StartS, EndS) the given
// Kind fires for the listed workers with probability Prob per draw (or
// scales by Factor, for factor-shaped kinds). Fields:
//
//   - Kind: any injectable kind. Byzantine kinds turn the listed workers
//     into adversaries for the window's duration; KindArrival windows
//     multiply the arrival rate by Factor (the flash-crowd knob) and
//     ignore Prob.
//   - Workers: the worker (or replica) ids the window applies to; nil
//     means all.
//   - StartS, EndS: the active interval, in simulated seconds, inclusive
//     of start and exclusive of end. EndS == 0 means open-ended (active
//     from StartS onwards). A window with EndS == StartS (nonzero) has
//     zero length and never fires — a legal no-op, so generated schedules
//     need not special-case empty intervals.
//   - Prob: per-draw probability while active. For Byzantine kinds, 0
//     defaults to 1 (the adversary attacks every round, matching
//     ByzantineRate semantics).
//   - Factor: kind-specific multiplier — straggler latency (default 8),
//     LR-spike multiplier (default 64), arrival-rate multiplier
//     (required for KindArrival), retry aggression and service-time
//     multipliers (required above 1 for KindRetryStorm and KindBrownout).
//     No other kind reads it, so Validate rejects a nonzero Factor on any
//     other kind. Overlapping windows multiply their factors and combine
//     their probabilities as 1-∏(1-pᵢ).
type Window struct {
	Kind    Kind
	Workers []int
	StartS  float64
	EndS    float64
	Prob    float64
	Factor  float64
}

// activeAt reports whether the window covers worker at time t.
func (w Window) activeAt(worker int, t float64) bool {
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

// scheduleBaseField maps a window kind to the rate-driven Config field it
// conflicts with ("" when the kind has no flat-rate counterpart).
func scheduleBaseField(k Kind) string {
	switch k {
	case KindCrash:
		return "CrashProb"
	case KindStraggle:
		return "StragglerProb"
	case KindDrop:
		return "DropProb"
	case KindCorrupt:
		return "CorruptProb"
	case KindBatchCorrupt:
		return "BatchCorruptProb"
	case KindLabelNoise:
		return "LabelNoiseProb"
	case KindLRSpike:
		return "LRSpikeProb"
	case KindLinkDrop:
		return "LinkDropProb"
	case KindLinkSlow:
		return "LinkSlowProb"
	case KindPartition:
		return "PartitionProb"
	}
	return ""
}

func (c Config) baseProb(field string) float64 {
	switch field {
	case "CrashProb":
		return c.CrashProb
	case "StragglerProb":
		return c.StragglerProb
	case "DropProb":
		return c.DropProb
	case "CorruptProb":
		return c.CorruptProb
	case "BatchCorruptProb":
		return c.BatchCorruptProb
	case "LabelNoiseProb":
		return c.LabelNoiseProb
	case "LRSpikeProb":
		return c.LRSpikeProb
	case "LinkDropProb":
		return c.LinkDropProb
	case "LinkSlowProb":
		return c.LinkSlowProb
	case "PartitionProb":
		return c.PartitionProb
	}
	return 0
}

// validateSchedule checks every window and rejects schedule-vs-rate
// conflicts: a kind must be driven either by its flat Config rate or by
// windows, never both, so there is exactly one source of truth for when
// each fault class fires. NaN and ±Inf are rejected first, naming the
// window's field, because every range comparison below lets NaN through.
func (c Config) validateSchedule() error {
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
			if len(c.ByzantineWorkers) > 0 {
				return invalid.New("fault", "Schedule",
					"Byzantine window %d conflicts with ByzantineWorkers rate config", i)
			}
		default:
			if w.Prob == 0 {
				return invalid.New("fault", "Schedule",
					"window %d probability is zero (%v windows need Prob > 0)", i, w.Kind)
			}
			if f := scheduleBaseField(w.Kind); f != "" && c.baseProb(f) > 0 {
				return invalid.New("fault", f, "%g conflicts with a %v schedule window (use one or the other)",
					c.baseProb(f), w.Kind)
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

// readsFactor reports whether windows of the kind scale by their Factor.
func readsFactor(k Kind) bool {
	switch k {
	case KindStraggle, KindLRSpike, KindArrival, KindRetryStorm, KindBrownout:
		return true
	}
	return false
}

// SetClock attaches a simulated-time source for draws that do not carry an
// explicit timestamp (the round-driven training path). Call it once,
// before the injector is shared across goroutines; a nil clock leaves
// schedule windows inert for clock-based draws.
func (i *Injector) SetClock(c Clock) {
	if i != nil {
		i.clock = c
	}
}

// clockNow returns the attached clock's time, or 0 and false without one.
func (i *Injector) clockNow() (float64, bool) {
	if i == nil || i.clock == nil {
		return 0, false
	}
	return i.clock.Now(), true
}

// windowStateAt folds every window of the kind active for worker at t:
// combined probability 1-∏(1-pᵢ) and the product of factors (1 when no
// active window sets one).
func (i *Injector) windowStateAt(kind Kind, worker int, t float64) (prob, factor float64) {
	factor = 1
	if i == nil {
		return 0, 1
	}
	miss := 1.0
	for _, w := range i.cfg.Schedule {
		if w.Kind != kind || !w.activeAt(worker, t) {
			continue
		}
		miss *= 1 - w.Prob
		if w.Factor > 0 {
			factor *= w.Factor
		}
	}
	return 1 - miss, factor
}

// probAt combines a flat base probability with the windows active at t.
// Validation guarantees at most one of the two is nonzero for any kind.
func (i *Injector) probAt(kind Kind, worker int, base, t float64) float64 {
	wp, _ := i.windowStateAt(kind, worker, t)
	if wp <= 0 {
		return base
	}
	return 1 - (1-base)*(1-wp)
}

// probNow is probAt at the attached clock's time; without a clock the base
// rate stands alone.
func (i *Injector) probNow(kind Kind, worker int, base float64) float64 {
	t, ok := i.clockNow()
	if !ok {
		return base
	}
	return i.probAt(kind, worker, base, t)
}

// ChanceAt is Chance with the schedule resolved at the explicit instant t:
// the effective probability combines base with every window of the kind
// active for worker at t. Components that track their own absolute
// timestamps (the serving simulator) use this; clock-driven components use
// the kind-specific helpers, which resolve at the attached clock.
func (i *Injector) ChanceAt(kind Kind, worker, step, attempt int, base, t float64) bool {
	if i == nil {
		return false
	}
	return i.Chance(kind, worker, step, attempt, i.probAt(kind, worker, base, t))
}

// FactorAt returns the product of the Factors of every window of the kind
// active for worker at t (1 when none is active or none sets a factor).
func (i *Injector) FactorAt(kind Kind, worker int, t float64) float64 {
	_, f := i.windowStateAt(kind, worker, t)
	return f
}

// StraggleFactorAt is the explicit-time form of StraggleFactor: the
// latency multiplier for a draw keyed (worker, step) resolved against the
// windows active at t. Window factors default to 8 like the flat-rate
// path.
func (i *Injector) StraggleFactorAt(worker, step int, t float64) float64 {
	if i == nil {
		return 1
	}
	wp, wf := i.windowStateAt(KindStraggle, worker, t)
	if wp <= 0 {
		return i.straggleFlat(worker, step)
	}
	if !i.Chance(KindStraggle, worker, step, 0, wp) {
		return 1
	}
	if wf <= 1 {
		return 8
	}
	return wf
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
	_, f := i.windowStateAt(KindArrival, worker, t)
	return i.Exp(KindArrival, worker, id, 0, mean/f)
}

// byzantineAt resolves which Byzantine attack (if any) the worker mounts
// this round, at simulated time t: the flat ByzantineWorkers config takes
// priority (validation forbids mixing it with Byzantine windows), then the
// first active Byzantine window listing the worker. The returned kind
// selects the attack shape; the magnitude knobs (SignFlipFactor etc.) come
// from Config as usual.
func (i *Injector) byzantineAt(worker, round int, t float64, haveT bool) (Kind, bool) {
	if i == nil {
		return 0, false
	}
	if i.ByzantineWorker(worker) {
		rate := i.cfg.ByzantineRate
		if rate == 0 {
			rate = 1
		}
		if i.Chance(i.cfg.ByzantineKind, worker, round, 0, rate) {
			return i.cfg.ByzantineKind, true
		}
		return 0, false
	}
	if !haveT {
		var ok bool
		if t, ok = i.clockNow(); !ok {
			return 0, false
		}
	}
	for _, w := range i.cfg.Schedule {
		if !IsByzantineKind(w.Kind) || !w.activeAt(worker, t) {
			continue
		}
		p := w.Prob
		if p == 0 {
			p = 1
		}
		if i.Chance(w.Kind, worker, round, 0, p) {
			return w.Kind, true
		}
	}
	return 0, false
}
