package serve

import (
	"dlsys/internal/invalid"
	"dlsys/internal/obs"
	"dlsys/internal/sim"
)

// Deterministic autoscaler. It is an actor on the simulation kernel that
// wakes on a fixed cadence, reads the fleet's queue-delay-estimate gauge
// from internal/obs — the same instrument a dashboard would alert on —
// and adjusts the replica target: scale up when the estimated delay
// crosses the up threshold (new replicas come online only after a
// provisioning lag), scale back down toward the floor when the delay has
// collapsed. A cooldown separates decisions so the lag cannot cause
// oscillation. Because it runs on the kernel's event order and reads
// gauges written by deterministic call sites, two runs of the same
// scenario scale identically.

// AutoscaleConfig tunes the fleet autoscaler.
type AutoscaleConfig struct {
	// Disabled turns scaling off; the fleet keeps its initial replicas.
	Disabled bool
	// MaxReplicas caps the fleet size (default 2x initial replicas). The
	// floor is the configured initial replica count.
	MaxReplicas int
	// IntervalS is the decision cadence (default 5 deadlines).
	IntervalS float64
	// LagS is the provisioning delay between a scale-up decision and the
	// new replicas serving traffic (default 3 intervals).
	LagS float64
	// CooldownS is the minimum time between decisions (default 2 intervals).
	CooldownS float64
}

// The scaler's thresholds, as fractions of DeadlineS: it scales up when the
// queue-delay estimate passes DeadlineS/scaleUpDiv, and back toward the
// floor when the estimate falls below DeadlineS/scaleDownDiv.
const (
	scaleUpDiv   = 2
	scaleDownDiv = 50
)

func (c *AutoscaleConfig) defaults(replicas int, deadlineS float64) {
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 2 * replicas
	}
	if c.IntervalS <= 0 {
		c.IntervalS = 5 * deadlineS
	}
	if c.LagS <= 0 {
		c.LagS = 3 * c.IntervalS
	}
	if c.CooldownS <= 0 {
		c.CooldownS = 2 * c.IntervalS
	}
}

func (c AutoscaleConfig) validate(replicas int) error {
	if c.Disabled {
		return nil
	}
	if c.MaxReplicas > 0 && c.MaxReplicas < replicas {
		return invalid.New("serve", "Autoscale.MaxReplicas", "%d below the initial fleet size %d", c.MaxReplicas, replicas)
	}
	return nil
}

// autoscaler drives one fleet's replica target from its obs gauges.
type autoscaler struct {
	cfg   AutoscaleConfig
	fleet *Fleet
	actor *sim.Actor

	delay *obs.Gauge // fleet.queue_delay_est, written by admission

	min, max      int
	up, down      float64 // queue-delay thresholds
	cooldownUntil float64
}

func newAutoscaler(cfg AutoscaleConfig, f *Fleet, actor *sim.Actor, delay *obs.Gauge) *autoscaler {
	cfg.defaults(f.cfg.Replicas, f.cfg.DeadlineS)
	return &autoscaler{
		cfg: cfg, fleet: f, actor: actor, delay: delay,
		min: f.cfg.Replicas, max: cfg.MaxReplicas,
		up: f.cfg.DeadlineS / scaleUpDiv, down: f.cfg.DeadlineS / scaleDownDiv,
	}
}

// start schedules the decision loop; it keeps firing until the fleet has
// finalized every request.
func (a *autoscaler) start(t0 float64) {
	if a.cfg.Disabled {
		return
	}
	a.actor.Every(t0+a.cfg.IntervalS, a.cfg.IntervalS, a.decide)
}

// decide is one control tick. Scale-up adds half the current fleet again
// (capped), online after LagS; scale-down retires surplus immediately
// (idle replicas first, busy ones as they complete).
func (a *autoscaler) decide(now float64) bool {
	f := a.fleet
	if f.finalized >= f.cfg.Requests {
		return false // day over; stop the cadence
	}
	if now < a.cooldownUntil {
		return true
	}
	d := a.delay.Value()
	switch {
	case d > a.up && f.desired < a.max:
		add := f.desired / 2
		if add < 1 {
			add = 1
		}
		if f.desired+add > a.max {
			add = a.max - f.desired
		}
		// Raise the target at decision time so the pending activation is
		// counted: completions must not retire the new replicas the moment
		// they come online, and the next tick must not double-order them.
		f.desired += add
		a.cooldownUntil = now + a.cfg.CooldownS
		a.actor.After(a.cfg.LagS, func(stamp float64) {
			f.addReplicas(add, stamp)
		})
	case d < a.down && f.desired > a.min:
		a.cooldownUntil = now + a.cfg.CooldownS
		f.removeReplicas(f.desired-a.min, now)
	}
	return true
}
