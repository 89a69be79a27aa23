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

import "math"

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

// Config describes a fault scenario. The zero value injects nothing (a
// perfect world). Faults fire only through Schedule's windows, which say
// both when each class fires and how hard (see Window); Rate, NumericalRate,
// LinkRate and Byzantine build the usual always-on scenarios.
type Config struct {
	Seed int64

	// Schedule lists the windows that fire faults.
	Schedule []Window

	// RestartDelay is how many rounds a crashed worker stays down before
	// it rejoins by restoring the latest model snapshot (default 3).
	RestartDelay int

	// PartitionRounds is how long a network bipartition lasts once begun
	// (default 3); each worker's side of the cut is a hash of the start
	// round, so the cut is stable for the partition's whole duration.
	PartitionRounds int
}

// always keeps the windows whose Prob is not exactly 0 and leaves them
// always on: every worker, from t = 0, with no end. A zero rate therefore
// builds the empty schedule, while a NaN or out-of-range rate stays for
// Validate to reject.
func always(ws ...Window) []Window {
	var out []Window
	for _, w := range ws {
		if w.Prob != 0 {
			out = append(out, w)
		}
	}
	return out
}

// Rate builds a Config in which one knob drives every fault class at
// proportions typical of real clusters: message loss and stragglers at the
// full rate, corruption at a fifth of it, crashes at a tenth.
func Rate(seed int64, rate float64) Config {
	return Config{Seed: seed, RestartDelay: 3, Schedule: always(
		Window{Kind: KindCrash, Prob: rate / 10},
		Window{Kind: KindStraggle, Prob: rate},
		Window{Kind: KindDrop, Prob: rate},
		Window{Kind: KindCorrupt, Prob: rate / 5},
	)}
}

// NumericalRate builds a Config in which one knob drives only the numerical
// fault classes: batch corruption at the full rate, label-noise bursts at
// half, LR spikes at a fifth. This is the scenario generator for the X7
// self-healing experiment.
func NumericalRate(seed int64, rate float64) Config {
	return Config{Seed: seed, Schedule: always(
		Window{Kind: KindBatchCorrupt, Prob: rate},
		Window{Kind: KindLabelNoise, Prob: rate / 2},
		Window{Kind: KindLRSpike, Prob: rate / 5},
	)}
}

// LinkRate builds a Config in which one knob drives only the link-level
// fault classes: per-attempt hop drops at the full rate, degraded links at
// half of it, partitions starting at a twentieth. This is the scenario
// generator for the X12 topology experiment.
func LinkRate(seed int64, rate float64) Config {
	return Config{Seed: seed, PartitionRounds: 3, Schedule: always(
		Window{Kind: KindLinkDrop, Prob: rate},
		Window{Kind: KindLinkSlow, Prob: rate / 2},
		Window{Kind: KindPartition, Prob: rate / 20},
	)}
}

// Byzantine builds a Config in which only the listed workers misbehave,
// mounting the given attack (one of the IsByzantineKind kinds) every round
// at its default magnitude; set the window's Factor for another. With no
// workers it builds the empty config, since a window's nil Workers would
// mean every worker.
func Byzantine(seed int64, kind Kind, workers ...int) Config {
	c := Config{Seed: seed}
	if len(workers) > 0 {
		c.Schedule = []Window{{Kind: kind, Workers: workers, Prob: 1}}
	}
	return c
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

// Crashes reports whether the worker crashes at the given round.
func (i *Injector) Crashes(worker, round int) bool {
	return i.ChanceAt(KindCrash, worker, round, 0, i.now())
}

// RestartDelay returns how many rounds a crashed worker stays down.
func (i *Injector) RestartDelay() int {
	if i == nil || i.cfg.RestartDelay <= 0 {
		return 3
	}
	return i.cfg.RestartDelay
}

// StraggleFactor returns the latency multiplier for the worker's compute
// at the given round: 1 normally, the straggle windows' factor (default 8)
// when straggling.
func (i *Injector) StraggleFactor(worker, round int) float64 {
	return i.scaled(KindStraggle, worker, worker, round, 8)
}

// Drops reports whether the attempt-th transmission of the worker's
// message at the given round is lost in flight.
func (i *Injector) Drops(worker, round, attempt int) bool {
	return i.ChanceAt(KindDrop, worker, round, attempt, i.now())
}

// Corrupts reports whether the attempt-th transmission arrives with
// flipped bits (to be caught by the receiver's CRC).
func (i *Injector) Corrupts(worker, round, attempt int) bool {
	return i.ChanceAt(KindCorrupt, worker, round, attempt, i.now())
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
