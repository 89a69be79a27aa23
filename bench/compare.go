package main

import (
	"fmt"
	"io"
	"math"
)

// minPairs and winShare are the rule for claiming a gain: at least ten
// alternating parent/change runs, and the change better in nine of every
// ten pairs, ties counting for neither.
const (
	minPairs = 10
	winShare = 0.9
)

// runMedians flattens results files into one map per run (each set of each
// invocation is a run) from workload/metric to the run's median.
func runMedians(reports []report) []map[string]float64 {
	var runs []map[string]float64
	index := map[[2]int]int{}
	for i, rp := range reports {
		for _, res := range rp.Results {
			k := [2]int{i, res.Set}
			j, ok := index[k]
			if !ok {
				j = len(runs)
				index[k] = j
				runs = append(runs, map[string]float64{})
			}
			for _, r := range res.Records {
				if !r.Layer {
					runs[j][r.Workload+" "+r.Metric] = r.Value
				}
			}
		}
	}
	return runs
}

// verdict judges one workload x metric across paired runs: better when the
// change wins nine tenths of the pairs and the medians differ by more
// than the parent's quartile spread; worse when the change's median is
// worse than the parent's by more than the bound; unresolved when there
// are too few pairs or the parent's own spread exceeds the bound; same
// otherwise.
func verdict(d metricDef, parent, change []float64) (string, float64, int) {
	n := min(len(parent), len(change))
	ps, cs := summarize(parent[:n]), summarize(change[:n])
	better := func(c, p float64) bool {
		if d.lowerBetter {
			return c < p
		}
		return c > p
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	delta := (cs.Median - ps.Median) / ps.Median
	worse := delta
	if !d.lowerBetter {
		worse = -delta
	}
	spread := (ps.Q3 - ps.Q1) / ps.Median
	switch {
	case n < minPairs:
		return "unresolved", delta, wins
	case float64(wins) >= winShare*float64(n) && better(cs.Median, ps.Median) &&
		math.Abs(cs.Median-ps.Median) > ps.Q3-ps.Q1:
		return "better", delta, wins
	case spread > d.bound:
		return "unresolved", delta, wins
	case worse > d.bound:
		return "worse", delta, wins
	}
	return "same", delta, wins
}

// compareFiles prints, for every bounded end-to-end metric on every
// workload, both sides' medians and quartiles across runs, the median
// delta against the bound, and the verdict. It fails when any verdict is
// worse.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	pr, err := readReports(parentPath)
	if err == nil {
		var cr []report
		cr, err = readReports(changePath)
		if err == nil {
			return compareRuns(runMedians(pr), runMedians(cr), stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareRuns(parent, change []map[string]float64, stdout io.Writer) int {
	values := func(runs []map[string]float64, key string) []float64 {
		var xs []float64
		for _, r := range runs {
			if v, ok := r[key]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	status := 0
	fmt.Fprintln(stdout, "workload metric parent_median [q1 q3] change_median [q1 q3] delta bound wins/pairs verdict")
	for _, key := range sortedKeys(parent[0]) {
		var wl, metric string
		fmt.Sscan(key, &wl, &metric)
		d, ok := endToEndDef(metric)
		p, c := values(parent, key), values(change, key)
		if !ok || len(c) == 0 {
			continue
		}
		if metric == "failed_frac" {
			// Bound 0: any failed rep on the change side is a regression.
			v := "same"
			if summarize(c).Max > 0 {
				v, status = "worse", 1
			}
			fmt.Fprintf(stdout, "%s %s %s\n", wl, metric, v)
			continue
		}
		if d.bound == 0 {
			continue
		}
		v, delta, wins := verdict(d, p, c)
		n := min(len(p), len(c))
		ps, cs := summarize(p[:n]), summarize(c[:n])
		fmt.Fprintf(stdout, "%s %s %s [%s %s] %s [%s %s] %+.2f%% %.0f%% %d/%d %s\n", wl, metric,
			formatValue(ps.Median), formatValue(ps.Q1), formatValue(ps.Q3),
			formatValue(cs.Median), formatValue(cs.Q1), formatValue(cs.Q3),
			100*delta, 100*d.bound, wins, n, v)
		if v == "worse" {
			status = 1
		}
	}
	return status
}
