// Command bench is dlsys's benchmark: six seeded workloads driven through
// the public constructors, with end-to-end metrics from untraced reps and
// per-layer metrics from one traced rep whose kernel the benchmark steps
// itself. Run it from the repository root with bench/run.sh, or from this
// directory with go run; see README.md for flags, workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times each workload sets up per run; setup_s is
// the median, so a slow first set-up does not decide it.
const setupRuns = 3

// minTimedReps is the fewest timed reps a time-budgeted run makes.
const minTimedReps = 3

type options struct {
	workloads []workload
	seed      int64
	reps      int     // exact timed reps; 0 defers to seconds or the workload default
	seconds   float64 // time budget for timed reps; 0 uses the rep count
	traced    bool
	traceOut  string
	out       string
	sets      int
	full      bool // full-size inputs; the tests run the experiments' quick sizes
}

// record is one metric of one workload in one set. Sampled metrics carry
// the median as Value plus their quartiles, extremes and sample count.
type record struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	N        int     `json:"n"`
	Derived  bool    `json:"derived,omitempty"`
	Layer    bool    `json:"layer,omitempty"`
	Set      int     `json:"set"`
}

// result is one workload's run in one set.
type result struct {
	Workload  string   `json:"workload"`
	Set       int      `json:"set"`
	Digest    string   `json:"digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Records   []record `json:"records"`
}

// report is everything one invocation measured.
type report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Seed       int64    `json:"seed"`
	Results    []result `json:"results"`
}

func main() {
	// One thread keeps every workload as serial as the yardstick that
	// rescales it: a parallel kernel would also measure whether the host's
	// other core happened to be free.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names string
	fs.StringVar(&names, "workloads", "", "comma-separated workloads to run (default all)")
	fs.StringVar(&names, "workload", "", "alias of -workloads")
	seed := fs.Int64("seed", 0, "input seed; 0 reproduces each experiment's own inputs")
	reps := fs.Int("reps", 0, "timed reps per workload (default: the workload's own count, or -seconds)")
	seconds := fs.Float64("seconds", 0, "time budget for each workload's timed reps (at least 3 reps)")
	trace := fs.String("trace", "", `"1" adds a traced rep and reports per-layer metrics; any other value except "0" is also a file the spans are written to`)
	out := fs.String("o", "", "append this invocation's records to a JSON-lines file")
	sets := fs.Int("sets", 1, "run every workload this many times and print the between-set median deltas")
	compare := fs.Bool("compare", false, "compare two results files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	opts := options{seed: *seed, reps: *reps, seconds: *seconds, out: *out, sets: *sets, full: true}
	if *trace != "" && *trace != "0" {
		opts.traced = true
		if *trace != "1" {
			opts.traceOut = *trace
		}
	}
	if opts.reps < 0 || opts.seconds < 0 || opts.sets < 1 {
		fmt.Fprintln(stderr, "bench: -reps and -seconds must not be negative and -sets must be at least 1")
		return 2
	}
	opts.workloads = workloads
	if names != "" {
		opts.workloads = nil
		for _, name := range strings.Split(names, ",") {
			w, ok := workloadByName(name)
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			opts.workloads = append(opts.workloads, w)
		}
	}
	if err := execute(opts, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// execute runs every set, prints the metric lines and the closing result
// line, and writes the results and trace files.
func execute(opts options, stdout io.Writer) error {
	rp := report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seed: opts.seed}
	var spans []span
	epoch := time.Now()
	for set := 1; set <= opts.sets; set++ {
		for _, w := range opts.workloads {
			res, err := runWorkload(w, opts, set, epoch, &spans)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Fprintf(stdout, "%s digest %s\n", res.Workload, res.Digest)
			for _, r := range res.Records {
				fmt.Fprintf(stdout, "%s %s %s %s\n", r.Workload, r.Metric, formatValue(r.Value), r.Unit)
			}
			rp.Results = append(rp.Results, res)
		}
	}
	if opts.sets > 1 {
		printCalibration(stdout, rp.Results)
	}
	if opts.out != "" {
		if err := appendJSONLine(opts.out, rp); err != nil {
			return err
		}
	}
	if opts.traceOut != "" {
		if err := writeJSON(opts.traceOut, map[string][]span{"spans": spans}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine(rp.Results, opts.traced))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// resultLine is the one-line verdict the run ends with. Its metrics are
// the ones BENCHMARK.json declares, end-to-end untraced and per-layer
// traced, with 0 where a workload does not exercise the layer. Several
// workloads or sets key each value as workload/metric.
func resultLine(results []result, traced bool) map[string]any {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	attempted, failed := 0, 0
	metrics := map[string]map[string]any{}
	for _, res := range results {
		attempted += res.Attempted
		failed += res.Failed
		values := map[string]float64{}
		for _, r := range res.Records {
			values[r.Metric] = r.Value
		}
		for _, d := range defs {
			if !d.declared {
				continue
			}
			key := d.name
			if len(results) > 1 {
				key = fmt.Sprintf("%s/%s", res.Workload, d.name)
				if res.Set > 1 {
					key = fmt.Sprintf("%s/set%d/%s", res.Workload, res.Set, d.name)
				}
			}
			metrics[key] = map[string]any{"value": values[d.name], "unit": d.unit}
		}
	}
	return map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// cellSeed is the seed of a workload's cell c: cell 0 runs the seed
// itself, so seed 0 still replays the experiment, and later cells sit a
// large prime apart, clear of every other small seed's cells. The stride
// stays far below 2^31-1, the modulus math/rand reduces seeds by, so
// cells never alias one another.
func cellSeed(seed int64, c int) int64 { return seed + int64(c)*1_000_003 }

// runWorkload sets the workload up, runs its timed reps and, when tracing,
// one traced rep, checking every rep's output.
func runWorkload(w workload, opts options, set int, epoch time.Time, spans *[]span) (result, error) {
	res := result{Workload: w.name, Set: set}
	cells := max(1, w.cells)
	var (
		reps     = make([]repFunc, cells)
		refs     = make([]uint64, cells)
		checked  = make([]bool, cells)
		setup    = map[string][]float64{}
		samples  = make([]map[string][]float64, cells)
		lastFail string
	)
	// The first checked rep of each cell fixes the digest every later rep
	// of that cell must reproduce.
	check := func(c int, o outcome) {
		res.Attempted++
		fail := o.fail
		if !checked[c] {
			refs[c], checked[c] = o.digest, true
		} else if fail == "" && o.digest != refs[c] {
			fail = fmt.Sprintf("digest %016x differs from the first rep's %016x", o.digest, refs[c])
		}
		if fail != "" {
			res.Failed++
			lastFail = fail
		}
	}
	// Set-up generates every cell's inputs and runs one untimed warm-up rep
	// of cell 0, so caches and the heap settle before timing. Each set-up
	// and timed rep sits between two yardstick runs, and its wall is
	// rescaled by their mean (see yardstick.go).
	y := settledYardstick()
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		for c := range reps {
			r, err := w.setup(cellSeed(opts.seed, c), opts.full)
			if err != nil {
				return res, err
			}
			reps[c] = r
		}
		check(0, reps[0](nil))
		wall := time.Since(start).Seconds()
		next := settledYardstick()
		setup["setup_s"] = append(setup["setup_s"], rescaled(wall, y, next))
		setup["setup_wall_s"] = append(setup["setup_wall_s"], wall)
		y = next
	}
	res.Digest = fmt.Sprintf("%016x", refs[0])

	timedStart := time.Now()
	more := func(n int) bool {
		switch {
		case opts.reps > 0:
			return n < opts.reps
		case opts.seconds > 0:
			return n < max(minTimedReps, cells) || time.Since(timedStart).Seconds() < opts.seconds
		}
		return n < w.reps
	}
	for n := 0; more(n); n++ {
		c := n % cells
		wall, alloc, o := measured(reps[c], nil)
		check(c, o)
		next := settledYardstick()
		s := samples[c]
		if s == nil {
			s = map[string][]float64{}
			samples[c] = s
		}
		s["ref_wall_s"] = append(s["ref_wall_s"], rescaled(wall, y, next))
		s["wall_s"] = append(s["wall_s"], wall)
		s["yardstick_ms"] = append(s["yardstick_ms"], 1e3*(y+next)/2)
		s["alloc_mb"] = append(s["alloc_mb"], float64(alloc.TotalAlloc)/1e6)
		for name, work := range o.work {
			d := wall
			if secs, ok := o.secs[name]; ok {
				d = secs
			}
			s[name] = append(s[name], work/d)
		}
		y = next
	}
	if cells > 1 {
		// The reps take the cells in order, so the checked ones lead.
		var ds []uint64
		for c := 0; c < cells && checked[c]; c++ {
			ds = append(ds, refs[c])
		}
		res.Digest = fmt.Sprintf("%016x", digest(ds...))
	}

	for _, d := range endToEnd {
		if xs, ok := setup[d.name]; ok {
			res.Records = append(res.Records, sampled(w.name, set, d, [][]float64{xs}))
			continue
		}
		var perCell [][]float64
		for _, s := range samples {
			if xs, ok := s[d.name]; ok {
				perCell = append(perCell, xs)
			}
		}
		if len(perCell) > 0 {
			res.Records = append(res.Records, sampled(w.name, set, d, perCell))
		}
	}

	if opts.traced {
		tr := newTracer(w.name, epoch, spans)
		y := settledYardstick()
		idx, prev := tr.open("rep")
		wall, delta, o := measured(reps[0], tr)
		tr.close(idx, prev)
		check(0, o)
		refWall := rescaled(wall, y, settledYardstick())
		pidx, pprev := tr.open("probes")
		layer := layerMetrics(tr, o, refWall, delta, summarize(samples[0]["ref_wall_s"]).Median)
		tr.close(pidx, pprev)
		for _, d := range perLayer {
			v, ok := layer[d.name]
			if !ok {
				continue
			}
			res.Records = append(res.Records, record{Workload: w.name, Metric: d.name, Unit: d.unit,
				Value: v, Q1: v, Q3: v, Min: v, Max: v, N: 1, Derived: derived[d.name], Layer: true, Set: set})
		}
	}

	ff := float64(res.Failed) / float64(res.Attempted)
	res.Records = append(res.Records, record{Workload: w.name, Metric: "failed_frac", Unit: "frac",
		Value: ff, Q1: ff, Q3: ff, Min: ff, Max: ff, N: res.Attempted, Set: set})
	if lastFail != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d reps failed; last: %s\n", w.name, res.Failed, res.Attempted, lastFail)
	}
	return res, nil
}

// sampled summarizes one metric's samples, grouped by cell. Its value is
// the mean of the cells' medians, which is the median with one cell; the
// quartiles, extremes and count are those of all samples together.
func sampled(workload string, set int, d metricDef, perCell [][]float64) record {
	var all []float64
	mean := 0.0
	for _, xs := range perCell {
		all = append(all, xs...)
		mean += summarize(xs).Median / float64(len(perCell))
	}
	s := summarize(all)
	return record{Workload: workload, Metric: d.name, Unit: d.unit, Value: mean,
		Q1: s.Q1, Q3: s.Q3, Min: s.Min, Max: s.Max, N: s.N, Set: set}
}

// memDelta is the Go runtime's accounting over one rep.
type memDelta struct {
	TotalAlloc, NumGC, PauseTotalNs uint64
}

// measured runs one rep and returns its wall seconds and what it
// allocated. The caller settles the heap first (settle).
func measured(rep repFunc, tr *tracer) (float64, memDelta, outcome) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	o := rep(tr)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return wall, memDelta{
		TotalAlloc:   after.TotalAlloc - before.TotalAlloc,
		NumGC:        uint64(after.NumGC - before.NumGC),
		PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
	}, o
}

// layerMetrics turns the traced rep and the layer probes into the
// per-layer metrics. refWall is the traced rep's rescaled wall and
// refMedian the untraced reps' median of the same cell, so the tracing
// overhead does not move with the host's speed.
func layerMetrics(tr *tracer, o outcome, refWall float64, mem memDelta, refMedian float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range o.layer {
		m[k] = v
	}
	share := func(s float64) float64 {
		if tr.loopS == 0 {
			return 0
		}
		return s / tr.loopS
	}
	meanDepth := 0.0
	if tr.steps > 0 {
		meanDepth = tr.depth / float64(tr.steps)
		m["sim.events"] = float64(tr.steps)
		m["sim.queue_depth_mean"] = meanDepth
		m["sim.queue_depth_max"] = float64(tr.maxDep)
	}
	m["sim.dispatch_ns"] = tr.timedValue("sim.dispatch probe", func() float64 {
		return dispatchNs(int(math.Round(meanDepth)), 200_000)
	})
	m["sim.dispatch_share"] = share(float64(tr.steps) * m["sim.dispatch_ns"] * 1e-9)
	for _, name := range append(append([]string(nil), actorNames...), unattributed) {
		a := tr.actors[name]
		if a.events == 0 {
			continue
		}
		p := "actor." + name
		m[p+".events"] = float64(a.events)
		m[p+".busy_s"] = a.busy.Seconds()
		m[p+".share"] = share(a.busy.Seconds())
		if name != unattributed {
			m[p+".step_us_p50"] = a.hist.quantile(0.5) / 1e3
			if a.events >= 1000 {
				m[p+".step_us_p99"] = a.hist.quantile(0.99) / 1e3
			}
		}
	}
	m["obs.records"] = obsRecords(o.handle)
	m["obs.record_ns"] = tr.timedValue("obs.record probe", func() float64 { return recordNs(o.handle, 200_000) })
	m["obs.est_share"] = share(m["obs.records"] * m["obs.record_ns"] * 1e-9)
	m["tensor.small_matmul_day_ns"] = tr.timedValue("tensor.MatMul 16x6x24", func() float64 { return smallMatMulNs(16, 6, 24, 20_000) })
	m["tensor.small_matmul_bloom_ns"] = tr.timedValue("tensor.MatMul 64x3x8", func() float64 { return smallMatMulNs(64, 3, 8, 20_000) })
	if o.probe != nil {
		for k, v := range o.probe(tr) {
			m[k] = v
		}
	}
	if r := m["livedb.retrains"]; r > 0 {
		m["livedb.maint_ms_per_retrain"] = 1e3 * m["actor.livedb-maint.busy_s"] / r
	}
	if o.ops > 0 {
		m["go.alloc_bytes_per_event"] = float64(mem.TotalAlloc) / float64(o.ops)
	}
	m["go.gc_cycles"] = float64(mem.NumGC)
	m["go.gc_pause_ms"] = float64(mem.PauseTotalNs) / 1e6
	if refMedian > 0 {
		m["trace.overhead_frac"] = refWall/refMedian - 1
	}
	return m
}

// printCalibration prints, for every end-to-end metric, the relative
// difference between the first two sets' medians next to its bound.
func printCalibration(w io.Writer, results []result) {
	type key struct{ workload, metric string }
	bySet := map[int]map[key]record{}
	var order []key
	for _, res := range results {
		if bySet[res.Set] == nil {
			bySet[res.Set] = map[key]record{}
		}
		for _, r := range res.Records {
			if r.Layer {
				continue
			}
			k := key{r.Workload, r.Metric}
			if res.Set == 1 {
				order = append(order, k)
			}
			bySet[res.Set][k] = r
		}
	}
	fmt.Fprintln(w, "calibration: workload metric set1 set2 delta bound agree")
	for _, k := range order {
		a, b := bySet[1][k], bySet[2][k]
		d, _ := endToEndDef(k.metric)
		if d.bound == 0 || a.Value == 0 {
			continue
		}
		delta := (b.Value - a.Value) / a.Value
		fmt.Fprintf(w, "calibration: %s %s %s %s %+.2f%% %.0f%% %v\n", k.workload, k.metric,
			formatValue(a.Value), formatValue(b.Value), 100*delta, 100*d.bound, math.Abs(delta) < d.bound)
	}
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readReports reads a JSON-lines results file.
func readReports(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []report
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no results")
	}
	return out, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
