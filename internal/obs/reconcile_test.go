package obs

import "testing"

// reconcileHandle is a small run: two sub.* counters, one other.* counter,
// a gauge, a histogram and three spans.
func reconcileHandle() *Handle {
	h := NewHandle()
	h.Counter("sub.hits").Add(3)
	h.Counter("sub.misses").Inc()
	h.Counter("other.hits").Inc()
	h.Gauge("sub.load").Set(0.5)
	lat := h.Histogram("sub.latency", []float64{1, 10})
	lat.Observe(0.25)
	lat.Observe(4)
	h.Emit("sub.req.ok", 0, 1)
	h.Emit("sub.req.ok", 1, 2)
	h.Emit("other", 2, 3)
	return h
}

func TestReconcilerPassesReadOnly(t *testing.T) {
	h := reconcileHandle()
	before := h.Reg.Fingerprint()
	r := NewReconciler(h, "sub.")
	r.Counter("sub.hits", 3)
	r.Counter("sub.never", 0) // never registered: reads as 0
	r.Exempt("sub.misses")    // exempt, and other.hits is outside the prefix
	r.Gauge("sub.load", 0.5)
	r.HistogramCount("sub.latency", 2)
	r.HistogramSum("sub.latency", 0.25+4)
	r.Spans("sub.req.", 2)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if after := h.Reg.Fingerprint(); after != before || len(h.Reg.Snapshot()) != 5 {
		t.Fatalf("reconciling changed the registry: fingerprint %016x -> %016x", before, after)
	}
}

// Every kind of mismatch lands in the one error, in check order, followed
// by the unchecked counters under the prefix; the registry stays as it was.
func TestReconcilerNamesEveryMismatch(t *testing.T) {
	h := reconcileHandle()
	before := h.Reg.Fingerprint()
	r := NewReconciler(h, "sub.")
	r.Counter("sub.hits", 4)
	r.Counter("sub.never", 2)
	r.Gauge("sub.load", 1)
	r.HistogramCount("sub.latency", 3)
	r.HistogramSum("sub.latency", 4)
	r.Spans("sub.req.", 3)
	r.Check(false, "ledger swaps=%d", 7)
	want := "sub.* does not reconcile: sub.hits=3 want 4; sub.never=0 want 2; sub.load=0.5 want 1; " +
		"sub.latency count=2 want 3; sub.latency sum=4.25 want 4; sub.req.* spans=2 want 3; " +
		"ledger swaps=7; unchecked counter sub.misses"
	if err := r.Err(); err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
	if h.Reg.Fingerprint() != before {
		t.Fatal("a failed reconcile moved the registry fingerprint")
	}
}
