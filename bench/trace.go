package main

import (
	"math/bits"
	"strings"
	"time"

	"dlsys/internal/obs"
	"dlsys/internal/sim"
	"dlsys/internal/tensor"
)

// The trace is taken from outside the program: the benchmark owns each
// workload's kernel and drives it with its own Step loop, so no code under
// internal/ knows it is being measured.

// actorNames are the kernel actors the subsystems schedule under. A step
// whose event none of them fired is charged to "unattributed".
var actorNames = []string{
	"distributed", "serve", "fleet-wl", "fleet-srv", "fleet-scale", "livedb-wl", "livedb-maint",
}

const unattributed = "unattributed"

// span is one timed interval of the traced rep. Times are seconds since
// the trace began; parent is the index of the enclosing span, -1 at the
// root.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Parent   int     `json:"parent"`
}

// eventSpanMin is the shortest kernel event kept as its own span; shorter
// ones only reach the per-actor histograms.
const eventSpanMin = time.Millisecond

// tracer records spans and per-actor step timings for one traced rep. A
// nil *tracer runs everything untraced, so a rep's code is the same on
// both paths.
type tracer struct {
	workload string
	epoch    time.Time
	spans    *[]span
	parent   int

	actors map[string]*actorStat
	loopS  float64 // wall of the traced Step loops
	steps  int
	depth  float64 // sum of Pending() sampled after every step
	maxDep int
}

// actorStat accumulates one actor's share of the traced Step loop.
type actorStat struct {
	events int
	busy   time.Duration
	hist   stepHist
}

func newTracer(workload string, epoch time.Time, spans *[]span) *tracer {
	t := &tracer{workload: workload, epoch: epoch, spans: spans, parent: -1, actors: map[string]*actorStat{}}
	for _, name := range append(actorNames, unattributed) {
		t.actors[name] = &actorStat{}
	}
	return t
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// open appends a span starting now and makes it the parent of later spans
// until close.
func (t *tracer) open(name string) (idx, prev int) {
	*t.spans = append(*t.spans, span{Name: name, Workload: t.workload, Start: t.since(time.Now()), Parent: t.parent})
	idx, prev = len(*t.spans)-1, t.parent
	t.parent = idx
	return idx, prev
}

func (t *tracer) close(idx, prev int) float64 {
	s := &(*t.spans)[idx]
	s.End = t.since(time.Now())
	t.parent = prev
	return s.End - s.Start
}

// span runs fn inside a span named name.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	idx, prev := t.open(name)
	fn()
	t.close(idx, prev)
}

// timed runs fn and returns its wall seconds, inside a span when tracing.
func (t *tracer) timed(name string, fn func()) float64 {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start).Seconds()
	}
	idx, prev := t.open(name)
	fn()
	return t.close(idx, prev)
}

// timedValue runs a probe that measures itself, inside a span.
func (t *tracer) timedValue(name string, fn func() float64) float64 {
	var v float64
	t.span(name, func() { v = fn() })
	return v
}

// run drains the kernel. Untraced, that is k.Run. Traced, the benchmark
// steps the kernel itself and reads one clock per step: each step's time
// runs from the previous reading, so the loop's bookkeeping is charged to
// the step after it and the per-actor times sum to the loop's wall. A step
// is charged to the actor whose Fired count advanced.
func (t *tracer) run(k *sim.Kernel) {
	if t == nil {
		k.Run()
		return
	}
	idx, prev := t.open("run")
	acts := make([]*sim.Actor, len(actorNames))
	fired := make([]int, len(actorNames))
	stats := make([]*actorStat, len(actorNames)+1)
	for i, name := range actorNames {
		acts[i] = k.Actor(name)
		fired[i] = acts[i].Fired()
		stats[i] = t.actors[name]
	}
	stats[len(actorNames)] = t.actors[unattributed]

	start := time.Now()
	last := start
	for {
		ok := k.Step()
		now := time.Now()
		d := now.Sub(last)
		last = now
		who := len(actorNames)
		for i, a := range acts {
			if f := a.Fired(); f != fired[i] {
				fired[i], who = f, i
				break
			}
		}
		st := stats[who]
		st.events++
		st.busy += d
		st.hist.add(d)
		if d >= eventSpanMin {
			name := unattributed
			if who < len(actorNames) {
				name = actorNames[who]
			}
			*t.spans = append(*t.spans, span{Name: "event:" + name, Workload: t.workload,
				Start: t.since(now.Add(-d)), End: t.since(now), Parent: idx})
		}
		if !ok {
			break
		}
		p := k.Pending()
		t.steps++
		t.depth += float64(p)
		if p > t.maxDep {
			t.maxDep = p
		}
	}
	t.loopS += last.Sub(start).Seconds()
	t.close(idx, prev)
}

// stepHist is a log-linear histogram of step durations in nanoseconds:
// sixteen linear sub-buckets per power of two, so a quantile read off it
// is within about 6% of the true value before interpolation.
type stepHist struct {
	n      int
	counts [64 * 16]int
}

func bucketOf(ns uint64) int {
	if ns < 16 {
		return int(ns)
	}
	e := bits.Len64(ns) - 5
	return e*16 + int(ns>>uint(e))
}

// bucketRange returns a bucket's lower edge and width in nanoseconds.
func bucketRange(b int) (lo, width float64) {
	if b < 16 {
		return float64(b), 1
	}
	e := b/16 - 1
	return float64(uint64(b%16+16) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *stepHist) add(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	b := bucketOf(ns)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// by rank inside the bucket that holds it.
func (h *stepHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-float64(seen)+0.5)/float64(c)
		}
		seen += c
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// dispatchNs times the kernel's own dispatch — heap pop and push, log
// hashing, actor accounting — with a no-op handler on a private kernel
// holding depth pending events. Every handler reschedules itself at a
// pseudo-random offset, so the depth stays fixed and pops land all over
// the heap.
func dispatchNs(depth, steps int) float64 {
	if depth < 1 {
		depth = 1
	}
	k := sim.New()
	k.Actor("probe")
	x := uint64(0x9e3779b97f4a7c15)
	var fn func(float64)
	fn = func(float64) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.After(float64(x>>40)*1e-9, "probe", fn)
	}
	for i := 0; i < depth; i++ {
		fn(0)
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		k.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(steps)
}

// recordNs times the obs layer's two hot calls, Counter.Inc and
// Histogram.Observe, on the registry the workload wrote to.
func recordNs(h *obs.Handle, n int) float64 {
	if h == nil {
		h = obs.NewHandle()
	}
	c := h.Counter("bench.probe.records")
	hist := h.Histogram("bench.probe.seconds", obs.ExpBuckets(1e-6, 2, 20))
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Inc()
		hist.Observe(float64(i&1023) * 1e-6)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(2*n)
}

// obsRecords counts what a workload recorded on its registry: counter
// totals plus histogram observation counts. Byte counters are left out:
// one Add moves them by a message's size, so their totals count bytes,
// not recording calls.
func obsRecords(h *obs.Handle) float64 {
	if h == nil {
		return 0
	}
	var n int64
	for _, p := range h.Reg.Snapshot() {
		if p.Kind != "gauge" && !strings.Contains(p.Name, "bytes") {
			n += p.Count
		}
	}
	return float64(n)
}

// smallMatMulNs times tensor.MatMul on the small shapes the simulators'
// MLPs train on: X10's training batch [16,6]·[6,24] and the learned
// Bloom classifier's batch [64,3]·[3,8]. Both stay below the packed and
// parallel thresholds.
func smallMatMulNs(m, k, n, calls int) float64 {
	a, b := tensor.New(m, k), tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		tensor.MatMul(a, b)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
