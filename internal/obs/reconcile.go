package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Reconciler checks one subsystem's instruments against the tallies they
// mirror. It is read-only: it reads one registry snapshot and the spans at
// construction, so a name the run never registered reads as 0 and nothing
// it does moves Reg.Fingerprint(). It is complete: Err also names every
// counter under the prefix that was neither checked nor exempted.
//
// A check costs a binary search of the sorted snapshot and formats nothing
// unless it fails, so reconciling a run allocates little beyond the
// snapshot itself.
type Reconciler struct {
	prefix string
	snap   []Point // sorted by (Kind, Name), as Snapshot returns it
	seen   []bool  // snap[i] is a counter checked or exempted
	spans  []SpanRecord
	errs   []string
}

// NewReconciler reads h (nil reads as empty) for the subsystem whose
// counters start with prefix.
func NewReconciler(h *Handle, prefix string) *Reconciler {
	r := &Reconciler{prefix: prefix}
	if h != nil {
		r.snap, r.spans = h.Reg.Snapshot(), h.Tracer.Spans()
	}
	r.seen = make([]bool, len(r.snap))
	return r
}

// find returns the index of the snapshot point of the given kind and name.
func (r *Reconciler) find(kind, name string) (int, bool) {
	key := Point{Kind: kind, Name: name}
	i := sort.Search(len(r.snap), func(i int) bool { return !pointLess(&r.snap[i], &key) })
	return i, i < len(r.snap) && r.snap[i].Kind == kind && r.snap[i].Name == name
}

// point returns the snapshot point of the given kind and name, or the zero
// Point when the run never registered it.
func (r *Reconciler) point(kind, name string) Point {
	if i, ok := r.find(kind, name); ok {
		return r.snap[i]
	}
	return Point{}
}

// Counter checks that the named counter equals want.
func (r *Reconciler) Counter(name string, want int64) {
	var got int64
	if i, ok := r.find("counter", name); ok {
		r.seen[i] = true
		got = r.snap[i].Count
	}
	if got != want {
		r.failf("%s=%d want %d", name, got, want)
	}
}

// Exempt marks a counter under the prefix as mirroring no tally.
func (r *Reconciler) Exempt(name string) {
	if i, ok := r.find("counter", name); ok {
		r.seen[i] = true
	}
}

// Gauge checks that the named gauge's last value equals want exactly.
func (r *Reconciler) Gauge(name string, want float64) {
	if got := r.point("gauge", name).Value; got != want {
		r.failf("%s=%g want %g", name, got, want)
	}
}

// HistogramCount checks the named histogram's observation count.
func (r *Reconciler) HistogramCount(name string, want int64) {
	if got := r.point("histogram", name).Count; got != want {
		r.failf("%s count=%d want %d", name, got, want)
	}
}

// HistogramSum checks the named histogram's sum bit for bit.
func (r *Reconciler) HistogramSum(name string, want float64) {
	if got := r.point("histogram", name).Value; got != want {
		r.failf("%s sum=%g want %g", name, got, want)
	}
}

// Spans checks how many spans have a name starting with prefix.
func (r *Reconciler) Spans(prefix string, want int) {
	got := 0
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, prefix) {
			got++
		}
	}
	if got != want {
		r.failf("%s* spans=%d want %d", prefix, got, want)
	}
}

// Check records a mismatch described by format and args unless ok.
func (r *Reconciler) Check(ok bool, format string, args ...any) {
	if !ok {
		r.failf(format, args...)
	}
}

func (r *Reconciler) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// Err returns one error listing every mismatch and every unchecked counter
// under the prefix, or nil when there are none.
func (r *Reconciler) Err() error {
	errs := r.errs
	for i, p := range r.snap {
		if p.Kind == "counter" && strings.HasPrefix(p.Name, r.prefix) && !r.seen[i] {
			errs = append(errs, "unchecked counter "+p.Name)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s* does not reconcile: %s", r.prefix, strings.Join(errs, "; "))
}
