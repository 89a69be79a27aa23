// Package fault is a deterministic, seedable fault injector for the
// simulated training systems in dlsys. Production-scale training must
// survive worker crashes, stragglers, lost messages, and corrupted
// payloads; following the "design reliability in, then test it with
// injected failures" methodology (Engineering Reliable Deep Learning
// Systems, arXiv:1910.12582), every fault class here is derived purely
// from (seed, kind, worker, step, attempt) by a splitmix64-style hash, so
//
//   - the same seed always yields exactly the same failure scenario, and
//   - the outcome of one query never depends on how many other queries
//     were made or in what order (unlike a shared rand.Rand stream).
//
// That order-independence is what lets the injector be threaded through
// concurrent components (parallel workers, retrying senders) while keeping
// whole-run results bit-reproducible.
package fault

import (
	"math"

	"dlsys/internal/invalid"
)

// Kind enumerates the injectable fault classes.
type Kind uint32

// Fault classes. Each kind draws from an independent hash stream, so e.g.
// enabling crashes does not perturb which messages are dropped.
const (
	KindCrash    Kind = 1 + iota // worker dies and must restart from a snapshot
	KindStraggle                 // worker's step is slowed by a latency multiplier
	KindDrop                     // message lost in flight (sender must retry)
	KindCorrupt                  // payload bit-flipped in flight (CRC must catch it)
	KindStage                    // pipeline stage failure (graceful degradation)
	KindArrival                  // request inter-arrival draw (serving workloads)

	// Numerical fault classes, injected into the training computation
	// itself rather than the communication layer. These are what the
	// self-healing guard (internal/guard) defends against.

	KindBatchCorrupt // input batch poisoned with NaN/Inf/huge values
	KindLabelNoise   // burst of shuffled labels (gradient poison without NaNs)
	KindLRSpike      // learning rate transiently multiplied (divergence trigger)

	// Byzantine fault classes: adversarial workers that stay up and
	// responsive but submit poisoned contributions. Unlike the numerical
	// classes above, these stay finite by construction, so they slip past
	// NaN/Inf screens and must be defeated by robust aggregation
	// (internal/robust) rather than finiteness guards.

	KindSignFlip    // gradient negated and amplified (ascent instead of descent)
	KindScaleAttack // gradient inflated by a large factor
	KindDriftAttack // small consistent bias added each round (stealthy drift)
	KindCollude     // fixed coalition coordinating amplified label-flip gradients

	// Link-level fault classes, injected into individual edges of a
	// collective-communication topology rather than whole workers. Draws
	// are keyed by (seed, kind, src, dst, round) — see link.go — so a
	// flaky switch port affects exactly the same hops on every replay.

	KindLinkDrop  // one hop's payload lost on a specific link (sender retries, then reroutes)
	KindLinkSlow  // link degraded for the round: hop time multiplied
	KindPartition // network bipartition: every link across the cut is severed

	// Serving-overload fault classes, scheduled in windows against the
	// event-driven serving fleet (internal/serve Fleet). Both are
	// factor-shaped: a window's Factor is the knob and Prob is ignored,
	// like KindArrival flash crowds.

	KindRetryStorm // client class turns impatient: extra retries, compressed backoff
	KindBrownout   // replica brownout: service time multiplied (thermal throttle, noisy neighbour)

	// kindEnd is one past the last declared kind. The exhaustiveness test
	// iterates [KindCrash, kindEnd) and fails on any "unknown" rendering,
	// so a new kind cannot silently print as unknown in ledgers.
	kindEnd
)

// String names the kind for schedules and logs.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindStraggle:
		return "straggle"
	case KindDrop:
		return "drop"
	case KindCorrupt:
		return "corrupt"
	case KindStage:
		return "stage-fail"
	case KindArrival:
		return "arrival"
	case KindBatchCorrupt:
		return "batch-corrupt"
	case KindLabelNoise:
		return "label-noise"
	case KindLRSpike:
		return "lr-spike"
	case KindSignFlip:
		return "sign-flip"
	case KindScaleAttack:
		return "scale-attack"
	case KindDriftAttack:
		return "drift-attack"
	case KindCollude:
		return "collude"
	case KindLinkDrop:
		return "link-drop"
	case KindLinkSlow:
		return "link-slow"
	case KindPartition:
		return "partition"
	case KindRetryStorm:
		return "retry-storm"
	case KindBrownout:
		return "brownout"
	}
	return "unknown"
}

// Config sets the per-event probabilities of each fault class. The zero
// value injects nothing (a perfect world).
type Config struct {
	Seed int64

	// CrashProb is the per-worker, per-round probability of a crash. A
	// crashed worker is down for RestartDelay rounds and rejoins by
	// restoring the latest model snapshot.
	CrashProb float64
	// RestartDelay is how many rounds a crashed worker stays down
	// (default 3 when crashes are enabled).
	RestartDelay int

	// StragglerProb is the per-worker, per-round probability that a step
	// is slowed by StragglerFactor (default 8x).
	StragglerProb   float64
	StragglerFactor float64

	// DropProb is the per-attempt probability that a message is lost in
	// flight, forcing a retransmission.
	DropProb float64
	// CorruptProb is the per-attempt probability that a payload arrives
	// bit-corrupted; receivers detect this via CRC and request a resend.
	CorruptProb float64

	// BatchCorruptProb is the per-step probability that the input batch is
	// poisoned with non-finite or absurdly large values (a flaky data
	// loader, a bad shard, a bit-flip upstream of the feature pipeline).
	BatchCorruptProb float64
	// LabelNoiseProb is the per-step probability that the batch's labels
	// arrive shuffled — a gradient poison that stays finite, so it must be
	// caught by divergence detection rather than NaN scans.
	LabelNoiseProb float64
	// LRSpikeProb is the per-step probability that the learning rate is
	// transiently multiplied by LRSpikeFactor (default 64), modelling a
	// mis-applied schedule or config push.
	LRSpikeProb   float64
	LRSpikeFactor float64

	// ByzantineWorkers lists the worker ids that behave adversarially: they
	// stay up, compute on schedule, and answer every message, but the
	// gradients (sync regime) or parameters (Local SGD regime) they upload
	// are poisoned according to ByzantineKind. An empty list disables
	// Byzantine behaviour.
	ByzantineWorkers []int
	// ByzantineKind selects the attack the adversaries mount: KindSignFlip,
	// KindScaleAttack, KindDriftAttack, or KindCollude.
	ByzantineKind Kind
	// ByzantineRate is the per-round probability that each adversary
	// attacks (0 means the default of 1: the adversary attacks every
	// round). Draws are keyed by (ByzantineKind, worker, round), so which
	// rounds are attacked is order-independent like every other fault.
	ByzantineRate float64
	// SignFlipFactor amplifies the negated gradient under KindSignFlip
	// (default 100). A plain negation at f=1/8 workers still averages to a
	// descent direction; the amplification is what makes the mean diverge.
	SignFlipFactor float64
	// ScaleAttackFactor inflates the gradient under KindScaleAttack
	// (default 100).
	ScaleAttackFactor float64
	// DriftAttackBias is the per-coordinate magnitude of the constant,
	// hash-signed bias vector added under KindDriftAttack (default 1.5).
	// The direction is fixed per seed, so the attack drifts the model
	// consistently while each poisoned gradient stays a plausible inlier.
	DriftAttackBias float64
	// ColludeBoost amplifies the coalition's coordinated label-flip
	// gradients under KindCollude (default 50).
	ColludeBoost float64

	// LinkDropProb is the per-hop, per-attempt probability that a
	// topology edge loses its payload, forcing the sender to retransmit
	// and — once the retry budget is exhausted — to route around the link.
	LinkDropProb float64
	// LinkSlowProb is the per-link, per-round probability that an edge is
	// degraded for the whole round, multiplying every hop over it by
	// LinkSlowFactor (default 8x).
	LinkSlowProb   float64
	LinkSlowFactor float64
	// PartitionProb is the per-round probability that a network
	// bipartition begins. Once started it lasts PartitionRounds rounds
	// (default 3); each worker's side of the cut is a hash of the start
	// round, so the cut is stable for the partition's whole duration.
	PartitionProb   float64
	PartitionRounds int

	// Schedule lists declarative time-windowed fault rules resolved
	// against simulated time — see Window. A kind may be driven either by
	// its flat rate above or by windows, never both (Validate rejects the
	// conflict), so there is one source of truth for when each class
	// fires.
	Schedule []Window
}

// Rate builds a Config in which one knob drives every fault class at
// proportions typical of real clusters: message loss and stragglers at the
// full rate, corruption at a fifth of it, crashes at a tenth.
func Rate(seed int64, rate float64) Config {
	return Config{
		Seed:            seed,
		CrashProb:       rate / 10,
		RestartDelay:    3,
		StragglerProb:   rate,
		StragglerFactor: 8,
		DropProb:        rate,
		CorruptProb:     rate / 5,
	}
}

// NumericalRate builds a Config in which one knob drives only the numerical
// fault classes: batch corruption at the full rate, label-noise bursts at
// half, LR spikes at a fifth. This is the scenario generator for the X7
// self-healing experiment.
func NumericalRate(seed int64, rate float64) Config {
	return Config{
		Seed:             seed,
		BatchCorruptProb: rate,
		LabelNoiseProb:   rate / 2,
		LRSpikeProb:      rate / 5,
		LRSpikeFactor:    64,
	}
}

// LinkRate builds a Config in which one knob drives only the link-level
// fault classes: per-attempt hop drops at the full rate, degraded links at
// half of it, partitions starting at a twentieth. This is the scenario
// generator for the X12 topology experiment.
func LinkRate(seed int64, rate float64) Config {
	return Config{
		Seed:            seed,
		LinkDropProb:    rate,
		LinkSlowProb:    rate / 2,
		LinkSlowFactor:  8,
		PartitionProb:   rate / 20,
		PartitionRounds: 3,
	}
}

// Byzantine builds a Config in which only the listed workers misbehave,
// mounting the given attack every round (rate 1). Attack magnitudes take
// their documented defaults; callers tune the exported fields directly for
// anything else.
func Byzantine(seed int64, kind Kind, workers ...int) Config {
	return Config{
		Seed:             seed,
		ByzantineWorkers: workers,
		ByzantineKind:    kind,
		ByzantineRate:    1,
	}
}

// Enabled reports whether any fault class has nonzero probability.
func (c Config) Enabled() bool {
	return c.CrashProb > 0 || c.StragglerProb > 0 || c.DropProb > 0 || c.CorruptProb > 0 ||
		c.BatchCorruptProb > 0 || c.LabelNoiseProb > 0 || c.LRSpikeProb > 0 ||
		c.LinkDropProb > 0 || c.LinkSlowProb > 0 || c.PartitionProb > 0 ||
		len(c.ByzantineWorkers) > 0 || len(c.Schedule) > 0
}

// Validate checks every field is finite, every probability is in [0, 1],
// and the Byzantine configuration is coherent (a valid attack kind,
// non-negative worker ids). A NaN factor would pass every "<= 1 means the
// default" test and be returned as the multiplier itself.
func (c Config) Validate() error {
	probs := []invalid.Field{
		invalid.F("CrashProb", c.CrashProb), invalid.F("StragglerProb", c.StragglerProb),
		invalid.F("DropProb", c.DropProb), invalid.F("CorruptProb", c.CorruptProb),
		invalid.F("BatchCorruptProb", c.BatchCorruptProb), invalid.F("LabelNoiseProb", c.LabelNoiseProb),
		invalid.F("LRSpikeProb", c.LRSpikeProb), invalid.F("ByzantineRate", c.ByzantineRate),
		invalid.F("LinkDropProb", c.LinkDropProb), invalid.F("LinkSlowProb", c.LinkSlowProb),
		invalid.F("PartitionProb", c.PartitionProb),
	}
	if err := invalid.Finite("fault", append(probs,
		invalid.F("StragglerFactor", c.StragglerFactor), invalid.F("LRSpikeFactor", c.LRSpikeFactor),
		invalid.F("LinkSlowFactor", c.LinkSlowFactor), invalid.F("SignFlipFactor", c.SignFlipFactor),
		invalid.F("ScaleAttackFactor", c.ScaleAttackFactor), invalid.F("DriftAttackBias", c.DriftAttackBias),
		invalid.F("ColludeBoost", c.ColludeBoost))...); err != nil {
		return err
	}
	for _, p := range probs {
		if p.Value < 0 || p.Value > 1 {
			return invalid.New("fault", p.Name, "%g out of [0,1]", p.Value)
		}
	}
	if len(c.ByzantineWorkers) > 0 {
		if !IsByzantineKind(c.ByzantineKind) {
			return invalid.New("fault", "ByzantineKind", "kind %d is not a Byzantine attack kind", c.ByzantineKind)
		}
		for _, w := range c.ByzantineWorkers {
			if w < 0 {
				return invalid.New("fault", "ByzantineWorkers", "contains a negative worker id %d", w)
			}
		}
	}
	return c.validateSchedule()
}

// Injector answers "does fault X happen at (worker, step, attempt)?"
// deterministically. Apart from the optional clock (set once via SetClock
// before any concurrent use), it is stateless and safe for concurrent use.
type Injector struct {
	cfg   Config
	clock Clock
}

// NewInjector builds an injector for the config. A nil injector (or one
// with a zero config) injects nothing, so callers can thread it through
// unconditionally.
func NewInjector(cfg Config) *Injector { return &Injector{cfg: cfg} }

// splitmix64 is the finalizer of the SplitMix64 generator — a fast,
// well-distributed 64-bit mix used here as a keyed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// prefix hashes the (seed, kind, worker, step) part of a draw's key, which
// every attempt of that draw shares.
func (i *Injector) prefix(kind Kind, worker, step int) uint64 {
	h := splitmix64(uint64(i.cfg.Seed))
	h = splitmix64(h ^ uint64(kind))
	h = splitmix64(h ^ uint64(int64(worker)))
	return splitmix64(h ^ uint64(int64(step)))
}

// finish completes a draw from its prefix with one mix over the attempt
// and maps the hash to a uniform [0,1) float.
func finish(prefix uint64, attempt int) float64 {
	return float64(splitmix64(prefix^uint64(int64(attempt)))>>11) / float64(1<<53)
}

// unit maps (seed, kind, worker, step, attempt) to a uniform [0,1) float.
func (i *Injector) unit(kind Kind, worker, step, attempt int) float64 {
	return finish(i.prefix(kind, worker, step), attempt)
}

// Chance is the generic deterministic Bernoulli draw: it reports whether
// the event of the given kind fires at (worker, step, attempt) under
// probability p. Components with fault classes beyond the built-in ones
// (e.g. pipeline stage failures) build on this directly.
func (i *Injector) Chance(kind Kind, worker, step, attempt int, p float64) bool {
	if i == nil || p <= 0 {
		return false
	}
	return i.unit(kind, worker, step, attempt) < p
}

// Exp maps (kind, worker, step, attempt) to a deterministic exponential
// variate with the given mean, via inversion of the same hash stream Chance
// uses. It is the arrival-process primitive for simulated serving
// workloads: Poisson arrivals whose gaps cannot be perturbed by how many
// other injector queries were made. A nil injector or non-positive mean
// yields 0.
func (i *Injector) Exp(kind Kind, worker, step, attempt int, mean float64) float64 {
	if i == nil || mean <= 0 {
		return 0
	}
	// 1-u is in (0,1], so the log never sees zero.
	return -mean * math.Log(1-i.unit(kind, worker, step, attempt))
}

// Crashes reports whether the worker crashes at the given round. With a
// clock attached, crash windows active at the clock's time add to the flat
// rate.
func (i *Injector) Crashes(worker, round int) bool {
	if i == nil {
		return false
	}
	return i.Chance(KindCrash, worker, round, 0, i.probNow(KindCrash, worker, i.cfg.CrashProb))
}

// RestartDelay returns how many rounds a crashed worker stays down.
func (i *Injector) RestartDelay() int {
	if i == nil || i.cfg.RestartDelay <= 0 {
		return 3
	}
	return i.cfg.RestartDelay
}

// StraggleFactor returns the latency multiplier for the worker's compute
// at the given round: 1 normally, the configured factor when straggling.
// With a clock attached, straggle windows active at the clock's time drive
// the draw (and supply the factor) instead of the flat rate.
func (i *Injector) StraggleFactor(worker, round int) float64 {
	if i == nil {
		return 1
	}
	if t, ok := i.clockNow(); ok {
		return i.StraggleFactorAt(worker, round, t)
	}
	return i.straggleFlat(worker, round)
}

// straggleFlat is the rate-driven straggler draw, shared by the clockless
// and out-of-window paths.
func (i *Injector) straggleFlat(worker, round int) float64 {
	if !i.Chance(KindStraggle, worker, round, 0, i.cfg.StragglerProb) {
		return 1
	}
	if i.cfg.StragglerFactor <= 1 {
		return 8
	}
	return i.cfg.StragglerFactor
}

// Drops reports whether the attempt-th transmission of the worker's
// message at the given round is lost in flight.
func (i *Injector) Drops(worker, round, attempt int) bool {
	if i == nil {
		return false
	}
	return i.Chance(KindDrop, worker, round, attempt, i.probNow(KindDrop, worker, i.cfg.DropProb))
}

// Corrupts reports whether the attempt-th transmission arrives with
// flipped bits (to be caught by the receiver's CRC).
func (i *Injector) Corrupts(worker, round, attempt int) bool {
	if i == nil {
		return false
	}
	return i.Chance(KindCorrupt, worker, round, attempt, i.probNow(KindCorrupt, worker, i.cfg.CorruptProb))
}

// CorruptPayload deterministically flips one bit of payload (chosen by the
// same hash stream as Corrupts) and returns it. Used to exercise real CRC
// detection rather than just simulating a boolean.
func (i *Injector) CorruptPayload(payload []byte, worker, round, attempt int) []byte {
	if i == nil || len(payload) == 0 {
		return payload
	}
	h := splitmix64(uint64(i.cfg.Seed)) ^ splitmix64(uint64(KindCorrupt)<<32|uint64(int64(worker)))
	h = splitmix64(h ^ uint64(int64(round))<<16 ^ uint64(int64(attempt)))
	bit := h % uint64(len(payload)*8)
	payload[bit/8] ^= 1 << (bit % 8)
	return payload
}

// Event is one scheduled fault occurrence.
type Event struct {
	Round  int
	Worker int
	Kind   Kind
	// Factor is the straggler latency multiplier (KindStraggle only).
	Factor float64
}

// Schedule enumerates the crash and straggler events the injector will
// produce for the given worker count and round horizon, in (round, worker)
// order. Drop/corrupt events are attempt-dependent (they depend on how
// often senders retry) and so are not part of the static schedule.
func (i *Injector) Schedule(workers, rounds int) []Event {
	var evs []Event
	if i == nil {
		return evs
	}
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			if i.Crashes(w, r) {
				evs = append(evs, Event{Round: r, Worker: w, Kind: KindCrash})
			}
			if f := i.StraggleFactor(w, r); f > 1 {
				evs = append(evs, Event{Round: r, Worker: w, Kind: KindStraggle, Factor: f})
			}
		}
	}
	return evs
}

// WorkerSeed derives an independent RNG seed for one worker from the run
// seed, so per-worker random streams (batch shuffles, initialisation) are
// stable regardless of the order or interleaving in which workers execute —
// a prerequisite for fault-injected reordering not changing results.
func WorkerSeed(seed int64, worker int) int64 {
	s := splitmix64(uint64(seed) ^ splitmix64(uint64(int64(worker))+0x517cc1b727220a95))
	// Keep the seed positive for readability in logs; rand.NewSource
	// accepts any int64 but negative seeds read poorly.
	return int64(s & math.MaxInt64)
}
