package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("same name must resolve to the same counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(2.5)
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %g, want -1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	// SearchFloat64s puts v == bound into that bound's bucket, so the
	// buckets mean (-inf,1], (1,10], (10,100], (100,inf).
	want := []int64{2, 1, 1, 2}
	got := h.Buckets()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if s := h.Sum(); s != 0.5+1+5+50+500+5000 {
		t.Fatalf("sum = %g", s)
	}
	// Bounds are fixed at creation: re-resolving with different bounds
	// returns the original instrument.
	if h2 := r.Histogram("lat", []float64{7}); h2 != h || len(h2.Bounds()) != 3 {
		t.Fatal("histogram identity must include its original bounds")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-3, 10, 4)
	want := []float64{1e-3, 1e-2, 1e-1, 1}
	for i, w := range want {
		if math.Abs(b[i]-w) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// Nil instruments, registries, tracers, spans, and handles must all be
// no-ops — that is the contract letting subsystems instrument hot paths
// unconditionally.
func TestNilSafety(t *testing.T) {
	var h *Handle
	c := h.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	h.Gauge("g").Set(1)
	if h.Gauge("g").Value() != 0 {
		t.Fatal("nil gauge must stay 0")
	}
	hist := h.Histogram("h", []float64{1})
	hist.Observe(5)
	if hist.Count() != 0 || hist.Sum() != 0 || hist.Buckets() != nil {
		t.Fatal("nil histogram must stay empty")
	}
	sp := h.Start("root", 0)
	sp.End(1)
	child := sp.Child("c", 0.5)
	child.End(0.9)
	var r *Registry
	if r.Counter("x") != nil || r.Snapshot() != nil || r.Fingerprint() != 0 {
		t.Fatal("nil registry must resolve nil instruments")
	}
	var tr *Tracer
	if tr.Start("x", 0) != nil || tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var m MemorySink
	if err := h.Flush(&m); err != nil {
		t.Fatalf("nil handle flush: %v", err)
	}
	if len(m.Exports) != 1 || m.Exports[0].Metrics != nil {
		t.Fatal("nil handle must flush an empty export")
	}
}

func TestTracerParentChildAndFingerprint(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer()
		root := tr.Start("round", 0)
		a := root.Child("compute", 0)
		a.End(1.5)
		b := root.Child("comm", 1.5)
		b.End(2)
		root.End(2)
		return tr
	}
	tr := build()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 0 {
		t.Fatalf("parents = %d,%d,%d", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	if spans[0].EndS != 2 || spans[1].EndS != 1.5 {
		t.Fatalf("ends = %g,%g", spans[0].EndS, spans[1].EndS)
	}
	if tr.Fingerprint() != build().Fingerprint() {
		t.Fatal("identical span sequences must fingerprint identically")
	}
	tr2 := build()
	tr2.Start("extra", 3).End(4)
	if tr.Fingerprint() == tr2.Fingerprint() {
		t.Fatal("different traces must fingerprint differently")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n).Inc()
		}
		r.Gauge("z.gauge").Set(3)
		r.Histogram("a.hist", []float64{1, 2}).Observe(1.5)
		return r
	}
	r1 := build([]string{"b", "a", "c"})
	r2 := build([]string{"c", "b", "a"})
	s1, s2 := r1.Snapshot(), r2.Snapshot()
	if len(s1) != 5 || len(s1) != len(s2) {
		t.Fatalf("snapshot sizes %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].Kind != s2[i].Kind || s1[i].Count != s2[i].Count {
			t.Fatalf("snapshot order diverged at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Fatal("registration order must not change the fingerprint")
	}
	r2.Counter("a").Inc()
	if r1.Fingerprint() == r2.Fingerprint() {
		t.Fatal("different counts must change the fingerprint")
	}
}

// Concurrent writers hammering one registry must be race-free (run under
// -race) and must lose no updates.
func TestConcurrentWritersOneRegistry(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine resolves the shared instruments by name —
			// the registry's sharded maps take the contention — and a
			// private one, and records spans concurrently.
			shared := r.Counter("shared")
			hist := r.Histogram("hist", ExpBuckets(1, 2, 8))
			gauge := r.Gauge("gauge")
			private := r.Counter("private." + string(rune('a'+g)))
			for i := 0; i < perG; i++ {
				shared.Inc()
				private.Inc()
				hist.Observe(float64(i % 200))
				gauge.Set(float64(i))
				if i%500 == 0 {
					sp := tr.Start("work", float64(i))
					sp.Child("inner", float64(i)).End(float64(i) + 1)
					sp.End(float64(i) + 2)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("shared counter lost updates: %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("hist", nil)
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram lost observations: %d", h.Count())
	}
	var bucketSum int64
	for _, b := range h.Buckets() {
		bucketSum += b
	}
	if bucketSum != h.Count() {
		t.Fatalf("bucket total %d != count %d", bucketSum, h.Count())
	}
	if got := tr.Len(); got != goroutines*(perG/500)*2 {
		t.Fatalf("tracer lost spans: %d", got)
	}
	for i, sp := range tr.Spans() {
		if sp.ID != i {
			t.Fatalf("span IDs must be dense and ordered, got %d at %d", sp.ID, i)
		}
	}
}

func TestJSONLSinkDeterministic(t *testing.T) {
	build := func() *Handle {
		h := NewHandle()
		h.Counter("req.served").Add(7)
		h.Histogram("req.lat", []float64{0.1, 1}).Observe(0.5)
		sp := h.Start("request", 1.25)
		sp.Child("attempt", 1.25).End(1.5)
		sp.End(1.5)
		return h
	}
	var b1, b2 bytes.Buffer
	if err := build().Flush(JSONLSink{W: &b1}); err != nil {
		t.Fatal(err)
	}
	if err := build().Flush(JSONLSink{W: &b2}); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("JSONL export not byte-identical:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if len(lines) != 4 { // 2 metrics + 2 spans
		t.Fatalf("got %d JSONL lines, want 4:\n%s", len(lines), b1.String())
	}
	if !strings.Contains(lines[0], `"type":"metric"`) || !strings.Contains(lines[3], `"type":"span"`) {
		t.Fatalf("unexpected line layout:\n%s", b1.String())
	}
}
