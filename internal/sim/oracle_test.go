package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The property test runs seeded random programs of At/After (by name and
// by actor), Every (by actor), Advance and RunUntil twice: on the kernel,
// and on an oracle that keeps pending events in a plain slice and sorts it
// by (t, seq) before every pop. Every executed event — which one, its
// stamp, the clock it ran at — must agree, and so must the fingerprints and
// per-actor fired counts.

// scheduler is the surface a program drives.
type scheduler interface {
	Now() float64
	At(t float64, actor string, viaActor bool, fn func(float64))
	After(d float64, actor string, viaActor bool, fn func(float64))
	Every(start, period float64, actor string, fn func(float64) bool)
	Advance(d float64)
	Step() bool
	RunUntil(t float64) int
	Register(actor string)
	Fired(actor string) int
	Processed() int
	Fingerprint() uint64
}

type kernelSched struct{ k *Kernel }

func (s kernelSched) Now() float64 { return s.k.Now() }
func (s kernelSched) At(t float64, actor string, viaActor bool, fn func(float64)) {
	if viaActor {
		s.k.Actor(actor).At(t, fn)
		return
	}
	s.k.At(t, actor, fn)
}
func (s kernelSched) After(d float64, actor string, viaActor bool, fn func(float64)) {
	if viaActor {
		s.k.Actor(actor).After(d, fn)
		return
	}
	s.k.After(d, actor, fn)
}
func (s kernelSched) Every(start, period float64, actor string, fn func(float64) bool) {
	s.k.Actor(actor).Every(start, period, fn)
}
func (s kernelSched) Advance(d float64)      { s.k.Advance(d) }
func (s kernelSched) Step() bool             { return s.k.Step() }
func (s kernelSched) RunUntil(t float64) int { return s.k.RunUntil(t) }
func (s kernelSched) Register(actor string)  { s.k.Actor(actor) }
func (s kernelSched) Fired(actor string) int { return s.k.Actor(actor).Fired() }
func (s kernelSched) Processed() int         { return s.k.Processed() }
func (s kernelSched) Fingerprint() uint64    { return s.k.Fingerprint() }
func (s kernelSched) registered() map[string]bool {
	m := map[string]bool{}
	for _, n := range s.k.Actors() {
		m[n] = true
	}
	return m
}

type oracleEvent struct {
	t      float64
	seq    uint64
	actor  string
	fn     func(float64)
	every  func(float64) bool
	period float64
}

type oracle struct {
	now       float64
	seq       uint64
	pending   []*oracleEvent
	fired     map[string]int // registered actors only
	processed int
	log       []byte
}

func newOracle() *oracle { return &oracle{fired: map[string]int{}} }

func (o *oracle) push(ev *oracleEvent) {
	ev.seq = o.seq
	o.seq++
	o.pending = append(o.pending, ev)
}

func (o *oracle) sortPending() {
	sort.Slice(o.pending, func(i, j int) bool {
		a, b := o.pending[i], o.pending[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return a.seq < b.seq
	})
}

func (o *oracle) Now() float64 { return o.now }
func (o *oracle) At(t float64, actor string, _ bool, fn func(float64)) {
	o.push(&oracleEvent{t: t, actor: actor, fn: fn})
}
func (o *oracle) After(d float64, actor string, via bool, fn func(float64)) {
	o.At(o.now+math.Max(d, 0), actor, via, fn)
}
func (o *oracle) Every(start, period float64, actor string, fn func(float64) bool) {
	o.push(&oracleEvent{t: start, actor: actor, every: fn, period: period})
}
func (o *oracle) Advance(d float64) {
	if d > 0 {
		o.now += d
	}
}

func (o *oracle) Step() bool {
	if len(o.pending) == 0 {
		return false
	}
	o.sortPending()
	ev := o.pending[0]
	o.pending = o.pending[1:]
	o.now = math.Max(o.now, ev.t)
	o.processed++
	o.log = append(o.log, ev.actor...)
	o.log = binary.LittleEndian.AppendUint64(o.log, math.Float64bits(ev.t))
	o.log = binary.LittleEndian.AppendUint64(o.log, ev.seq)
	if _, ok := o.fired[ev.actor]; ok {
		o.fired[ev.actor]++
	}
	if ev.every != nil {
		if ev.every(ev.t) {
			ev.t += ev.period
			o.push(ev)
		}
		return true
	}
	ev.fn(ev.t)
	return true
}

func (o *oracle) RunUntil(t float64) int {
	n := 0
	for len(o.pending) > 0 {
		o.sortPending()
		if o.pending[0].t > t {
			break
		}
		if o.Step() {
			n++
		}
	}
	o.now = math.Max(o.now, t)
	return n
}

func (o *oracle) Register(actor string) {
	if _, ok := o.fired[actor]; !ok {
		o.fired[actor] = 0
	}
}
func (o *oracle) Fired(actor string) int { return o.fired[actor] }
func (o *oracle) Processed() int         { return o.processed }
func (o *oracle) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write(o.log)
	return h.Sum64()
}

// execution is one line of a program's trace: an executed event, or the
// outcome of a RunUntil call (label -1).
type execution struct {
	label      int
	stamp, now float64
}

// coverage counts the cases a program reached, so the test can insist
// that the seeds exercise each of them.
type coverage struct {
	overtaken, ties, runUntil int
}

// runProgram drives one seeded random program on s and returns its trace.
// Times sit on a half-second grid so same-instant ties are common; handlers
// advance the clock past pending events, schedule behind the clock, and
// register actors late.
func runProgram(seed int64, s scheduler) ([]execution, coverage) {
	rng := rand.New(rand.NewSource(seed))
	actors := []string{"a", "b", "c"}
	registered := map[string]bool{}
	register := func(name string) {
		registered[name] = true
		s.Register(name)
	}
	var (
		trace  []execution
		cov    coverage
		labels int
	)
	budget := 60 + rng.Intn(200)

	grid := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) * 0.5 }
	var spawn func()
	act := func(label int, stamp float64) {
		if stamp < s.Now() {
			cov.overtaken++
		}
		if n := len(trace); n > 0 && trace[n-1].label >= 0 && trace[n-1].stamp == stamp {
			cov.ties++
		}
		trace = append(trace, execution{label: label, stamp: stamp, now: s.Now()})
		if rng.Intn(6) == 0 {
			s.Advance(grid(0, 6))
		}
		for n := rng.Intn(3); n > 0; n-- {
			spawn()
		}
		if rng.Intn(10) == 0 {
			register(actors[rng.Intn(len(actors))])
		}
	}
	spawn = func() {
		if budget == 0 {
			return
		}
		budget--
		label := labels
		labels++
		actor := actors[rng.Intn(len(actors))]
		via := registered[actor] && rng.Intn(2) == 0
		switch rng.Intn(5) {
		case 0, 1:
			// May lie behind the clock: an overtaken stamp.
			t := math.Max(0, s.Now()+grid(-6, 8))
			s.At(t, actor, via, func(stamp float64) { act(label, stamp) })
		case 2, 3:
			s.After(grid(-2, 6), actor, via, func(stamp float64) { act(label, stamp) })
		default:
			// A periodic chain runs under an actor handle, so its actor
			// registers first.
			register(actor)
			limit, fires := 1+rng.Intn(5), 0
			s.Every(s.Now()+grid(0, 4), grid(1, 4), actor, func(now float64) bool {
				fires++
				act(label, now)
				if rng.Intn(6) == 0 {
					return false
				}
				return fires < limit
			})
		}
	}

	register("a")
	for n := 3 + rng.Intn(6); n > 0; n-- {
		spawn()
	}
	for {
		if rng.Intn(4) == 0 {
			cov.runUntil++
			n := s.RunUntil(s.Now() + grid(0, 6))
			trace = append(trace, execution{label: -1, stamp: float64(n), now: s.Now()})
			continue
		}
		if !s.Step() {
			break
		}
	}
	return trace, cov
}

func TestKernelMatchesSortOracle(t *testing.T) {
	const seeds = 300
	var total coverage
	events := 0
	for seed := int64(0); seed < seeds; seed++ {
		ks, or := kernelSched{New()}, newOracle()
		got, cov := runProgram(seed, ks)
		want, _ := runProgram(seed, or)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d ran %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: kernel traced %d steps, oracle %d", seed, len(got), len(want))
		}
		if ks.Processed() != or.Processed() || ks.Fingerprint() != or.Fingerprint() {
			t.Fatalf("seed %d: processed %d fp %x, oracle %d fp %x",
				seed, ks.Processed(), ks.Fingerprint(), or.Processed(), or.Fingerprint())
		}
		for name := range ks.registered() {
			if ks.Fired(name) != or.Fired(name) {
				t.Fatalf("seed %d: actor %q fired %d, oracle %d", seed, name, ks.Fired(name), or.Fired(name))
			}
		}
		if ks.k.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after the queue drained", seed, ks.k.Pending())
		}
		events += ks.Processed()
		total.overtaken += cov.overtaken
		total.ties += cov.ties
		total.runUntil += cov.runUntil
	}
	t.Logf("%d events over %d seeds; coverage %+v", events, seeds, total)
	for name, n := range map[string]int{
		"overtaken stamps": total.overtaken, "same-instant ties": total.ties, "RunUntil calls": total.runUntil,
	} {
		if n < seeds/10 {
			t.Errorf("only %d %s over %d seeds", n, name, seeds)
		}
	}
}
