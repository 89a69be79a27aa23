// Package obs is the uniform observability substrate for dlsys: a
// zero-external-dependency metrics registry (counters, gauges, fixed-bucket
// histograms) plus a tracer producing parent/child spans stamped from the
// simulators' virtual clocks. Everything is deterministic by construction —
// instruments are resolved by name once and updated from deterministic call
// sites, spans carry simulated (not wall-clock) timestamps, and both the
// registry and the tracer hash their full contents with FNV-1a so a replayed
// scenario can be asserted bit-identical, exactly like the guard's incident
// ledger.
//
// Instrumentation is opt-in and nil-safe end to end: a nil *Handle (or nil
// *Registry, *Tracer, *Counter, ...) turns every call into a cheap no-op
// branch, so un-instrumented hot paths pay near zero. The registry itself is
// safe for concurrent writers — names hash to sharded mutex-guarded maps and
// all updates are atomic — which the -race tests in this package hammer.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dlsys/internal/fp"
)

// nameShards is the number of mutex-guarded name→instrument maps the
// registry spreads lookups over. Lookups happen once per instrument per
// run (callers keep the returned handle), so contention is negligible;
// sharding exists so that concurrent late lookups cannot serialise.
const nameShards = 16

// Counter is a monotonically increasing integer metric. The zero pointer is
// a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any sign, but counters are conventionally monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets. Bucket i
// counts observations <= Bounds[i]; one implicit overflow bucket counts the
// rest. Counts and the running sum are atomics, so concurrent observers are
// race-free; the sum is bit-deterministic whenever observations arrive in a
// deterministic order (the wiring rule every dlsys subsystem follows).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last = overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the per-bucket counts, overflow last (nil on nil).
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Bounds returns the bucket upper bounds (nil on nil).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// ExpBuckets returns n upper bounds starting at start and growing by
// factor: start, start*factor, ... — the standard latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry resolves metric names to instruments. A nil *Registry resolves
// every name to a nil (no-op) instrument, so callers never branch.
type Registry struct {
	shards [nameShards]shard
}

type shard struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func nameHash(name string) uint64 {
	h := fp.New()
	h.String(name)
	return uint64(h)
}

func (r *Registry) shard(name string) *shard {
	return &r.shards[nameHash(name)%nameShards]
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters == nil {
		s.counters = map[string]*Counter{}
	}
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gauges == nil {
		s.gauges = map[string]*Gauge{}
	}
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// are fixed on first creation; later calls with different bounds get the
// original instrument (bounds are part of a metric's identity, not a
// per-call knob).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.histograms == nil {
		s.histograms = map[string]*Histogram{}
	}
	h, ok := s.histograms[name]
	if !ok {
		h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		s.histograms[name] = h
	}
	return h
}

// Point is one metric in a deterministic registry snapshot.
type Point struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge", or "histogram"
	// Counter/histogram-count value.
	Count int64 `json:"count"`
	// Gauge value or histogram sum.
	Value float64 `json:"value,omitempty"`
	// Histogram detail (nil otherwise).
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Snapshot returns every instrument's current state sorted by (kind, name),
// so two registries fed identical updates snapshot identically.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	var pts []Point
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for name, c := range s.counters {
			pts = append(pts, Point{Name: name, Kind: "counter", Count: c.Value()})
		}
		for name, g := range s.gauges {
			pts = append(pts, Point{Name: name, Kind: "gauge", Value: g.Value()})
		}
		for name, h := range s.histograms {
			pts = append(pts, Point{
				Name: name, Kind: "histogram",
				Count: h.Count(), Value: h.Sum(),
				Bounds: h.Bounds(), Buckets: h.Buckets(),
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].Kind != pts[b].Kind {
			return pts[a].Kind < pts[b].Kind
		}
		return pts[a].Name < pts[b].Name
	})
	return pts
}

// Fingerprint hashes the sorted snapshot — names, kinds, counts, values,
// bounds, and bucket counts — with FNV-1a. Two same-seed runs of an
// instrumented scenario must produce equal fingerprints.
func (r *Registry) Fingerprint() uint64 {
	if r == nil {
		return 0
	}
	h := fp.New()
	for _, p := range r.Snapshot() {
		h.String(p.Kind)
		h.String(p.Name)
		h.Word(uint64(p.Count))
		h.Float(p.Value)
		for _, b := range p.Bounds {
			h.Float(b)
		}
		for _, c := range p.Buckets {
			h.Word(uint64(c))
		}
	}
	return uint64(h)
}

// Handle bundles a Registry and a Tracer — the single field a subsystem
// config exposes to turn instrumentation on. A nil *Handle (the default)
// disables everything at near-zero cost.
type Handle struct {
	Reg    *Registry
	Tracer *Tracer
}

// NewHandle returns a handle with a fresh registry and tracer.
func NewHandle() *Handle {
	return &Handle{Reg: NewRegistry(), Tracer: NewTracer()}
}

// Counter resolves a counter (nil on a nil handle).
func (h *Handle) Counter(name string) *Counter {
	if h == nil {
		return nil
	}
	return h.Reg.Counter(name)
}

// Gauge resolves a gauge (nil on a nil handle).
func (h *Handle) Gauge(name string) *Gauge {
	if h == nil {
		return nil
	}
	return h.Reg.Gauge(name)
}

// Histogram resolves a histogram (nil on a nil handle).
func (h *Handle) Histogram(name string, bounds []float64) *Histogram {
	if h == nil {
		return nil
	}
	return h.Reg.Histogram(name, bounds)
}

// Start opens a root span at the given simulated time (nil on nil).
func (h *Handle) Start(name string, startS float64) *Span {
	if h == nil {
		return nil
	}
	return h.Tracer.Start(name, startS)
}

// Emit records an already-finished root span (no-op on a nil handle).
func (h *Handle) Emit(name string, startS, endS float64) {
	if h != nil {
		h.Tracer.Emit(name, startS, endS)
	}
}
