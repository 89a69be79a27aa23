package main

import "sort"

// metricDef describes one metric: its unit, which direction is better,
// and, for the metrics a change is judged by, the bound past which a worse
// median counts as a regression (a share of the parent's median).
type metricDef struct {
	name        string
	unit        string
	lowerBetter bool
	bound       float64
	// declared marks the metrics BENCHMARK.json lists; they make up the
	// result line.
	declared bool
}

// endToEnd are the metrics measured on the untraced reps. The times and
// alloc_mb apply to every workload; the throughputs only where their unit
// of work exists.
//
// Only ref_wall_s and setup_s, both in yardstick-rescaled reference
// seconds, are declared. On the shared 2-vCPU machine the benchmark was
// calibrated on, the host seconds of one run repeated minutes apart moved
// by 12-40% with the neighbours' load, so wall_s and setup_wall_s keep
// their bounds for -compare only. Rescaled, ten-seed spreads stayed within
// 1-5% on a quiet host and 3.5-9% on one running at half speed, which the
// ref_wall_s bound covers about three times over. A change is judged on
// runs over several seeds, and different seeds give day and live-index
// different numbers of index retrains, so their allocation differs from
// seed to seed; alloc_mb, which repeats exactly for one seed, keeps its
// tight bound for same-seed comparisons. setup_s must carry the largest
// declared bound.
var endToEnd = []metricDef{
	{name: "ref_wall_s", unit: "s", lowerBetter: true, bound: 0.24, declared: true},
	{name: "setup_s", unit: "s", lowerBetter: true, bound: 0.25, declared: true},
	{name: "wall_s", unit: "s", lowerBetter: true, bound: 0.24},
	{name: "setup_wall_s", unit: "s", lowerBetter: true, bound: 0.25},
	{name: "yardstick_ms", unit: "ms", lowerBetter: true},
	{name: "alloc_mb", unit: "MB", lowerBetter: true, bound: 0.02},
	{name: "events_per_s", unit: "1/s", bound: 0.10},
	{name: "sim_req_per_s", unit: "1/s", bound: 0.10},
	{name: "queries_per_s", unit: "1/s", bound: 0.10},
	{name: "rounds_per_s", unit: "1/s", bound: 0.10},
	{name: "gflops_f64", unit: "GFLOP/s", bound: 0.10},
	{name: "gflops_f32", unit: "GFLOP/s", bound: 0.10},
	{name: "failed_frac", unit: "frac", lowerBetter: true},
}

// perLayer are the traced run's metrics. The result line of a traced run
// carries every declared one, as 0 where the workload does not exercise
// the layer; that is why no declared metric is a time that could only read
// 0 there. The undeclared ones are such times: they are printed and
// written to the results file only where their layer runs.
//
// The declared list also carries the untraced reps' host wall, the
// yardstick's time next to them, and the workload throughputs in host
// seconds: they are unbounded, because they move with the host's speed.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "wall_s", unit: "s", lowerBetter: true, declared: true},
		{name: "yardstick_ms", unit: "ms", lowerBetter: true, declared: true},
		{name: "events_per_s", unit: "1/s", declared: true},
		{name: "sim_req_per_s", unit: "1/s", declared: true},
		{name: "queries_per_s", unit: "1/s", declared: true},
		{name: "rounds_per_s", unit: "1/s", declared: true},
		{name: "gflops_f64", unit: "GFLOP/s", declared: true},
		{name: "gflops_f32", unit: "GFLOP/s", declared: true},
		{name: "sim.events", unit: "count", declared: true},
		{name: "sim.queue_depth_mean", unit: "count", declared: true},
		{name: "sim.queue_depth_max", unit: "count", declared: true},
		{name: "sim.dispatch_ns", unit: "ns", lowerBetter: true, declared: true},
		{name: "sim.dispatch_share", unit: "frac", declared: true},
	}
	for _, a := range append(append([]string(nil), actorNames...), unattributed) {
		p := "actor." + a
		defs = append(defs,
			metricDef{name: p + ".events", unit: "count", declared: true},
			metricDef{name: p + ".share", unit: "frac", declared: true},
			metricDef{name: p + ".busy_s", unit: "s", lowerBetter: true})
		if a != unattributed {
			defs = append(defs,
				metricDef{name: p + ".step_us_p50", unit: "us", lowerBetter: true},
				metricDef{name: p + ".step_us_p99", unit: "us", lowerBetter: true})
		}
	}
	defs = append(defs, []metricDef{
		{name: "serve.fleet.retries", unit: "count", declared: true},
		{name: "serve.fleet.retries_denied", unit: "count", declared: true},
		{name: "serve.fleet.shed", unit: "count", declared: true},
		{name: "serve.fleet.cache_hit_rate", unit: "frac", declared: true},
		{name: "serve.fleet.useful_frac", unit: "frac", declared: true},
		{name: "serve.fleet.peak_replicas", unit: "count", declared: true},
		{name: "obs.records", unit: "count", declared: true},
		{name: "obs.record_ns", unit: "ns", lowerBetter: true, declared: true},
		{name: "obs.est_share", unit: "frac", declared: true},
		{name: "livedb.retrains", unit: "count", declared: true},
		{name: "livedb.swaps", unit: "count", declared: true},
		{name: "livedb.rollbacks", unit: "count", declared: true},
		{name: "learned.bloom_build_ms", unit: "ms", lowerBetter: true},
		{name: "learned.rmi_build_ms", unit: "ms", lowerBetter: true},
		{name: "livedb.lookup_ns", unit: "ns", lowerBetter: true},
		{name: "livedb.maint_ms_per_retrain", unit: "ms", lowerBetter: true},
		{name: "tensor.ref_gflops", unit: "GFLOP/s", declared: true},
		{name: "tensor.tiled_gflops", unit: "GFLOP/s", declared: true},
		{name: "tensor.batmul_gflops", unit: "GFLOP/s", declared: true},
		{name: "tensor.bitexact", unit: "bool", declared: true},
		{name: "tensor.small_matmul_day_ns", unit: "ns", lowerBetter: true, declared: true},
		{name: "tensor.small_matmul_bloom_ns", unit: "ns", lowerBetter: true, declared: true},
		{name: "distributed.rounds", unit: "count", declared: true},
		{name: "distributed.comm_rounds", unit: "count", declared: true},
		{name: "distributed.retransmissions", unit: "count", declared: true},
		{name: "distributed.topo_heals", unit: "count", declared: true},
		{name: "go.alloc_bytes_per_event", unit: "B", lowerBetter: true, declared: true},
		{name: "go.gc_cycles", unit: "count", lowerBetter: true, declared: true},
		{name: "go.gc_pause_ms", unit: "ms", lowerBetter: true},
		{name: "trace.overhead_frac", unit: "frac", lowerBetter: true, declared: true},
	}...)
	return defs
}()

// derived names the per-layer values computed from other measurements
// rather than timed directly.
var derived = map[string]bool{
	"sim.dispatch_share": true, "obs.est_share": true, "livedb.maint_ms_per_retrain": true,
}

// summary is the distribution of one metric's samples.
type summary struct {
	Median, Q1, Q3, Min, Max float64
	N                        int
}

// summarize returns the median and quartiles as Python's
// statistics.quantiles(n=4) computes them (the exclusive method), so the
// numbers here match an outside check.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: quartile(s, 2), Q1: quartile(s, 1), Q3: quartile(s, 3),
		Min: s[0], Max: s[len(s)-1], N: len(s),
	}
}

// quartile returns cut point i (1..3) of sorted s by Python's exclusive
// method: rank i(n+1)/4, interpolated between neighbours, with the
// neighbour index clamped as Python clamps it.
func quartile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := i * (n + 1)
	j := m / 4
	j = max(1, min(j, n-1))
	delta := float64(m - 4*j)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}
