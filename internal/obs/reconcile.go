package obs

import (
	"fmt"
	"strings"
)

// Reconciler checks one subsystem's instruments against the tallies they
// mirror. It is read-only: it reads one registry snapshot and the spans at
// construction, so a name the run never registered reads as 0 and nothing
// it does moves Reg.Fingerprint(). It is complete: Err also names every
// counter under the prefix that was neither checked nor exempted.
type Reconciler struct {
	prefix string
	snap   []Point
	points map[string]Point // snap keyed by kind + " " + name
	spans  []SpanRecord
	seen   map[string]bool // counters checked or exempted
	errs   []string
}

// NewReconciler reads h (nil reads as empty) for the subsystem whose
// counters start with prefix.
func NewReconciler(h *Handle, prefix string) *Reconciler {
	r := &Reconciler{prefix: prefix, points: map[string]Point{}, seen: map[string]bool{}}
	if h != nil {
		r.snap, r.spans = h.Reg.Snapshot(), h.Tracer.Spans()
	}
	for _, p := range r.snap {
		r.points[p.Kind+" "+p.Name] = p
	}
	return r
}

// Counter checks that the named counter equals want.
func (r *Reconciler) Counter(name string, want int64) {
	r.seen[name] = true
	got := r.points["counter "+name].Count
	r.Check(got == want, "%s=%d want %d", name, got, want)
}

// Exempt marks a counter under the prefix as mirroring no tally.
func (r *Reconciler) Exempt(name string) { r.seen[name] = true }

// Gauge checks that the named gauge's last value equals want exactly.
func (r *Reconciler) Gauge(name string, want float64) {
	got := r.points["gauge "+name].Value
	r.Check(got == want, "%s=%g want %g", name, got, want)
}

// HistogramCount checks the named histogram's observation count.
func (r *Reconciler) HistogramCount(name string, want int64) {
	got := r.points["histogram "+name].Count
	r.Check(got == want, "%s count=%d want %d", name, got, want)
}

// HistogramSum checks the named histogram's sum bit for bit.
func (r *Reconciler) HistogramSum(name string, want float64) {
	got := r.points["histogram "+name].Value
	r.Check(got == want, "%s sum=%g want %g", name, got, want)
}

// Spans checks how many spans have a name starting with prefix.
func (r *Reconciler) Spans(prefix string, want int) {
	got := 0
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, prefix) {
			got++
		}
	}
	r.Check(got == want, "%s* spans=%d want %d", prefix, got, want)
}

// Check records a mismatch described by format and args unless ok.
func (r *Reconciler) Check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// Err returns one error listing every mismatch and every unchecked counter
// under the prefix, or nil when there are none.
func (r *Reconciler) Err() error {
	errs := r.errs
	for _, p := range r.snap {
		if p.Kind == "counter" && strings.HasPrefix(p.Name, r.prefix) && !r.seen[p.Name] {
			errs = append(errs, "unchecked counter "+p.Name)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s* does not reconcile: %s", r.prefix, strings.Join(errs, "; "))
}
