package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the schema of BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json and the program must describe the same metrics, and every
// workload the file judges must be one the program runs, in the program's
// order: the file is what a change is judged by, the program what runs.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	i := 0
	for _, w := range s.Workloads {
		for i < len(workloads) && workloads[i].name != w.Name {
			i++
		}
		if i == len(workloads) {
			t.Fatalf("BENCHMARK.json workload %q is not in the program, or out of its order", w.Name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the program %q", w.Name, w.Why, workloads[i].why)
		}
	}
	check := func(kind string, got []specMetric, defs []metricDef, bounded bool) {
		var want []metricDef
		for _, d := range defs {
			if d.declared {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program declares %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			better := "higher"
			if d.lowerBetter {
				better = "lower"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
	for _, m := range s.EndToEnd {
		if m.Name != "setup_s" && *m.Bound >= boundOf(s, "setup_s") {
			t.Errorf("setup_s must carry the largest bound; %s has %g", m.Name, *m.Bound)
		}
	}
}

func boundOf(s spec, name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return *m.Bound
		}
	}
	return math.NaN()
}

// TestSmoke runs every workload at quick size, one timed rep plus one
// traced rep, and checks the result line against BENCHMARK.json, the
// traced loop's attribution, and that no rep failed.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	var spans []span
	for _, w := range workloads {
		res, err := runWorkload(w, options{reps: 1, traced: true, sets: 1}, 1, time.Now(), &spans)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d reps failed", w.name, res.Failed, res.Attempted)
		}
		for traced, declared := range map[bool][]specMetric{false: s.EndToEnd, true: s.PerLayer} {
			metrics := resultLine([]result{res}, traced)["metrics"].(map[string]map[string]any)
			if len(metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := metrics[m.Name]
				if !ok || got["unit"] != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %v", w.name, traced, m.Name, m.Unit, got)
				}
			}
		}
		values := map[string]float64{}
		for _, r := range res.Records {
			values[r.Metric] = r.Value
		}
		for _, m := range s.EndToEnd {
			if values[m.Name] <= 0 {
				t.Errorf("%s: end-to-end %s = %g, want a positive measurement", w.name, m.Name, values[m.Name])
			}
		}
		if w.name == "gemm" {
			if values["tensor.bitexact"] != 1 {
				t.Errorf("gemm: fast f64 tiers not bit-exact")
			}
			continue
		}
		// The per-actor times, unattributed included, must account for the
		// traced loop's wall, and named actors for at least 95% of it.
		total, named := 0.0, 0.0
		for _, a := range append(append([]string(nil), actorNames...), unattributed) {
			total += values["actor."+a+".share"]
			if a != unattributed {
				named += values["actor."+a+".share"]
			}
		}
		if math.Abs(total-1) > 0.05 || named < 0.95 {
			t.Errorf("%s: actor shares sum to %.4f, named %.4f", w.name, total, named)
		}
		if values["sim.events"] <= 0 || values["obs.records"] <= 0 {
			t.Errorf("%s: sim.events=%g obs.records=%g", w.name, values["sim.events"], values["obs.records"])
		}
	}
	if len(spans) == 0 {
		t.Error("traced reps recorded no spans")
	}
}

// counting returns a workload whose reps report the digests and failures
// it is given, one per rep, warm-ups included.
func counting(digests []uint64, fails []string) workload {
	n := 0
	return workload{name: "counting", reps: len(digests) - setupRuns, setup: func(int64, bool) (repFunc, error) {
		return func(*tracer) outcome {
			o := outcome{digest: digests[n], fail: fails[n], ops: 1}
			n++
			return o
		}, nil
	}}
}

func failedFrac(t *testing.T, res result) float64 {
	t.Helper()
	for _, r := range res.Records {
		if r.Metric == "failed_frac" {
			return r.Value
		}
	}
	t.Fatal("no failed_frac record")
	return 0
}

func TestDigestMismatchAndInvariantFailuresCount(t *testing.T) {
	var spans []span
	same := []uint64{7, 7, 7, 7, 7}
	ok := make([]string, 5)
	res, err := runWorkload(counting(same, ok), options{sets: 1}, 1, time.Now(), &spans)
	if err != nil || failedFrac(t, res) != 0 || res.Attempted != 5 {
		t.Fatalf("clean run: err=%v failed_frac=%g attempted=%d", err, failedFrac(t, res), res.Attempted)
	}
	res, _ = runWorkload(counting([]uint64{7, 7, 7, 8, 7}, ok), options{sets: 1}, 1, time.Now(), &spans)
	if got := failedFrac(t, res); got != 0.2 {
		t.Errorf("one forced digest mismatch in 5 reps: failed_frac %g, want 0.2", got)
	}
	res, _ = runWorkload(counting(same, []string{"", "", "", "", "broken"}), options{sets: 1}, 1, time.Now(), &spans)
	if got := failedFrac(t, res); got != 0.2 {
		t.Errorf("one failed invariant in 5 reps: failed_frac %g, want 0.2", got)
	}
	line := resultLine([]result{res}, false)
	if line["correct"] != false || line["failed"] != 1 || line["attempted"] != 5 {
		t.Errorf("result line %v", line)
	}
}

// Each cell's reps are checked against that cell's own first digest, and
// the run's values are means of the cells' medians.
func TestCellsKeepTheirOwnDigests(t *testing.T) {
	var spans []span
	ok := make([]string, 7)
	w := counting([]uint64{7, 7, 7, 7, 9, 7, 9}, ok)
	w.cells = 2
	res, err := runWorkload(w, options{sets: 1}, 1, time.Now(), &spans)
	if err != nil || res.Failed != 0 || res.Attempted != 7 {
		t.Fatalf("two cells with two digests: err=%v failed=%d attempted=%d", err, res.Failed, res.Attempted)
	}
	if want := fmt.Sprintf("%016x", digest(7, 9)); res.Digest != want {
		t.Errorf("digest %s, want both cells' folded: %s", res.Digest, want)
	}
	w = counting([]uint64{7, 7, 7, 7, 9, 7, 8}, ok)
	w.cells = 2
	if res, _ = runWorkload(w, options{sets: 1}, 1, time.Now(), &spans); res.Failed != 1 {
		t.Errorf("a cell's digest changed: failed=%d, want 1", res.Failed)
	}

	d, _ := endToEndDef("ref_wall_s")
	r := sampled("w", 1, d, [][]float64{{1, 2, 9}, {4}})
	if r.Value != 3 || r.N != 4 || r.Min != 1 || r.Max != 9 {
		t.Errorf("sampled = %+v, want value 3 (mean of medians 2 and 4) over 4 samples", r)
	}
	if cellSeed(5, 0) != 5 || cellSeed(5, 1) == cellSeed(6, 0) {
		t.Error("cell 0 must run the seed itself and later cells must not collide with other seeds")
	}
}

func TestSetupErrorStopsTheRun(t *testing.T) {
	bad := workload{name: "bad", setup: func(int64, bool) (repFunc, error) { return nil, errors.New("no inputs") }}
	var out bytes.Buffer
	err := execute(options{workloads: []workload{bad}, sets: 1}, &out)
	if err == nil || !strings.Contains(err.Error(), "no inputs") {
		t.Fatalf("err = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before failing", out.String())
	}
}

// The command line end to end on the cheapest full-size workload: two
// sets with a traced rep, a trace file, appended results, and a compare.
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	traceFile, results := filepath.Join(dir, "trace.json"), filepath.Join(dir, "results.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "elastic-train", "--seed", "3", "--reps", "1", "--sets", "2",
		"--trace", traceFile, "-o", results}
	if rc := run(args, &stdout, &stderr); rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last["correct"] != true {
		t.Errorf("result line %v", last)
	}
	metrics := last["metrics"].(map[string]any)
	if _, ok := metrics["elastic-train/set2/actor.distributed.share"]; !ok {
		t.Errorf("two-set result line lacks per-set keys: %v", metrics)
	}
	if !strings.Contains(stdout.String(), "calibration: elastic-train wall_s") {
		t.Error("no calibration lines for -sets 2")
	}
	var tr map[string][]span
	if b, err := os.ReadFile(traceFile); err != nil || json.Unmarshal(b, &tr) != nil || len(tr["spans"]) == 0 {
		t.Fatalf("trace file: %v", err)
	}

	stdout.Reset()
	if rc := run([]string{"-workload", "elastic-train", "-reps", "1", "-seconds", "0.01", "-trace", "0", "-o", results}, &stdout, &stderr); rc != 0 {
		t.Fatalf("second run rc=%d", rc)
	}
	reports, err := readReports(results)
	if err != nil || len(reports) != 2 {
		t.Fatalf("results file holds %d reports: %v", len(reports), err)
	}
	stdout.Reset()
	if rc := run([]string{"-compare", results, results}, &stdout, &stderr); rc != 0 {
		t.Fatalf("compare rc=%d: %s", rc, stderr.String())
	}
	if !strings.Contains(stdout.String(), "elastic-train wall_s") || !strings.Contains(stdout.String(), "unresolved") {
		t.Errorf("compare with 3 runs a side must be unresolved:\n%s", stdout.String())
	}
}

func TestCommandLineRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-reps", "-1"},
		{"-sets", "0"},
		{"-bogus"},
		{"extra"},
		{"-compare", "only-one.json"},
		{"-compare", "missing.json", "missing.json"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(args, &stdout, &stderr); rc != 2 {
			t.Errorf("%v: rc=%d, want 2", args, rc)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed a result: %q", args, stdout.String())
		}
	}
}

func TestVerdicts(t *testing.T) {
	wall, _ := endToEndDef("wall_s")
	gf, _ := endToEndDef("gflops_f64")
	series := func(base, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + step*float64(i%3)
		}
		return xs
	}
	parent := series(1, 0.01, 10)
	for _, c := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"faster", wall, parent, series(0.8, 0.01, 10), "better"},
		{"slower", wall, parent, series(1.3, 0.01, 10), "worse"},
		{"unchanged", wall, parent, series(1, 0.01, 10), "same"},
		{"too few pairs", wall, parent[:9], series(0.5, 0.01, 9), "unresolved"},
		{"noisy parent", wall, series(1, 0.3, 10), series(1.2, 0.3, 10), "unresolved"},
		{"higher is better", gf, parent, series(1.3, 0.01, 10), "better"},
	} {
		if got, _, _ := verdict(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// compare reads appended results files and fails on a worse metric,
// failed reps included.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, failed float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			rp := report{Results: []result{{Workload: "gemm", Set: 1, Records: []record{
				{Workload: "gemm", Metric: "wall_s", Value: wall + 0.001*float64(i%2)},
				{Workload: "gemm", Metric: "failed_frac", Value: failed},
				{Workload: "gemm", Metric: "sim.events", Value: 1, Layer: true},
			}}}}
			if err := appendJSONLine(path, rp); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", 1, 0)
	for _, c := range []struct {
		change string
		rc     int
		want   string
	}{
		{write("same.jsonl", 1, 0), 0, "gemm wall_s"},
		{write("slow.jsonl", 1.5, 0), 1, "worse"},
		{write("broken.jsonl", 1, 0.5), 1, "gemm failed_frac worse"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := compareFiles(parent, c.change, &stdout, &stderr); rc != c.rc || !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%s: rc=%d output:\n%s", c.change, rc, stdout.String())
		}
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if rc := compareFiles(parent, empty, &stdout, &stderr); rc != 2 {
		t.Errorf("empty results file: rc=%d", rc)
	}
}

// summarize must reproduce Python's statistics.quantiles(xs, n=4), the
// outside check the bounds are calibrated against.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs           []float64
		q1, med, q3  float64
		wantMin, max float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 1, 10},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1, 2},
		{[]float64{4}, 4, 4, 4, 4, 4},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.Min != c.wantMin || s.Max != c.max || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v", c.xs, s)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestStepHistogram(t *testing.T) {
	for _, ns := range []uint64{0, 1, 15, 16, 17, 31, 32, 1000, 123456789} {
		lo, w := bucketRange(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= lo+w {
			t.Errorf("%d ns lands in bucket [%g, %g)", ns, lo, lo+w)
		}
	}
	var h stepHist
	if h.quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	for i := 0; i < 99; i++ {
		h.add(1000 * time.Nanosecond)
	}
	h.add(time.Millisecond)
	h.add(-time.Nanosecond)
	if p50 := h.quantile(0.5); math.Abs(p50-1000)/1000 > 0.07 {
		t.Errorf("p50 = %g ns, want about 1000", p50)
	}
	if p100 := h.quantile(1); p100 < 900_000 {
		t.Errorf("max = %g ns, want about 1e6", p100)
	}
	h.add(time.Duration(math.MaxInt64))
	if h.quantile(1) <= 0 {
		t.Error("overflow bucket lost")
	}
}
