// Package checkpoint implements the training-time-vs-memory tradeoff of
// Part 1 of the tutorial (§2.3): activation recomputation with store-all,
// sqrt(n) equidistant, and budget-constrained optimal checkpoint placement
// (the Checkmate idea specialised to layer chains), plus an analytic model
// of offloading intermediate results to host memory over a PCIe-like link.
package checkpoint

import (
	"math"

	"dlsys/internal/device"
	"dlsys/internal/nn"
)

// Plan marks which layer OUTPUTS are retained during the forward pass.
// Keep[i] corresponds to the output of layer i; the network input is always
// retained implicitly. len(Keep) must equal the number of layers, and the
// last layer's output is always treated as kept (it feeds the loss).
type Plan struct {
	Keep []bool
}

// StoreAll retains every activation — the memory ceiling, zero recompute.
func StoreAll(n int) Plan {
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	return Plan{Keep: keep}
}

// SqrtN retains every ⌈√n⌉-th activation (Chen et al.'s sublinear-memory
// heuristic), giving O(√n) memory at one extra forward pass.
func SqrtN(n int) Plan {
	keep := make([]bool, n)
	stride := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		if (i+1)%stride == 0 {
			keep[i] = true
		}
	}
	keep[n-1] = true
	return Plan{Keep: keep}
}

// Segments returns the checkpoint segment boundaries: each segment is the
// half-open layer range (start, end] whose interior activations are
// recomputed from the activation at index start (-1 = network input).
func (p Plan) Segments() [][2]int {
	var segs [][2]int
	start := -1
	for i, k := range p.Keep {
		if k || i == len(p.Keep)-1 {
			segs = append(segs, [2]int{start, i})
			start = i
		}
	}
	return segs
}

// CostModel describes a layer chain for planning: Sizes[i] is the float
// count of layer i's output activation, Costs[i] its forward FLOPs.
type CostModel struct {
	Sizes []int64
	Costs []int64
}

// FromNetwork derives a CostModel for a batch size from a network whose
// layers implement OutputShaper, starting from the per-example input shape.
func FromNetwork(net *nn.Network, inShape []int, batch int) CostModel {
	cm := CostModel{}
	shape := inShape
	for _, l := range net.Layers {
		os, ok := l.(nn.OutputShaper)
		if !ok {
			panic("checkpoint: layer " + l.Name() + " does not report output shape")
		}
		shape = os.OutputShape(shape)
		floats := int64(batch)
		for _, d := range shape {
			floats *= int64(d)
		}
		cm.Sizes = append(cm.Sizes, floats)
		var c int64
		if fc, ok := l.(nn.FLOPsCounter); ok {
			c = fc.FLOPs(batch)
		}
		cm.Costs = append(cm.Costs, c)
	}
	return cm
}

// PeakMemory returns the peak activation floats alive under the plan:
// all kept activations plus, during backward, the largest fully
// rematerialised segment.
func (cm CostModel) PeakMemory(p Plan) int64 {
	var kept int64
	for i, k := range p.Keep {
		if k {
			kept += cm.Sizes[i]
		}
	}
	var maxSeg int64
	for _, seg := range p.Segments() {
		var s int64
		for i := seg[0] + 1; i <= seg[1]; i++ {
			if !p.Keep[i] || i == seg[1] {
				s += cm.Sizes[i]
			}
		}
		if s > maxSeg {
			maxSeg = s
		}
	}
	return kept + maxSeg
}

// RecomputeFLOPs returns the extra forward FLOPs the plan pays during
// backward: every non-kept interior activation is recomputed once.
func (cm CostModel) RecomputeFLOPs(p Plan) int64 {
	var extra int64
	for _, seg := range p.Segments() {
		for i := seg[0] + 1; i < seg[1]; i++ {
			if !p.Keep[i] {
				extra += cm.Costs[i]
			}
		}
	}
	return extra
}

// OptimalPlan finds a checkpoint placement minimising recompute FLOPs
// subject to PeakMemory ≤ budget, by dynamic programming over checkpoint
// positions: dp[i] is, for every reachable kept-size, the cheapest
// recompute for a plan whose last checkpoint is layer i, subject to every
// segment's rematerialised size staying within maxSeg. The outer loop scans
// all O(n²) candidate maxSeg values (contiguous interval sums), so the
// result is exact for chains. Returns store-all if it fits, and false if
// no placement fits the budget.
func (cm CostModel) OptimalPlan(budget int64) (Plan, bool) {
	n := len(cm.Sizes)
	if cm.PeakMemory(StoreAll(n)) <= budget {
		return StoreAll(n), true
	}
	// Candidate maxSeg values.
	seen := map[int64]bool{}
	var candidates []int64
	for a := 0; a < n; a++ {
		var s int64
		for b := a; b < n; b++ {
			s += cm.Sizes[b]
			if !seen[s] {
				seen[s] = true
				candidates = append(candidates, s)
			}
		}
	}
	var best Plan
	bestRecompute := int64(-1)
	var bestPeak int64
	for _, maxSeg := range candidates {
		if maxSeg > budget {
			continue
		}
		plan, ok := cm.minRecomputePlan(maxSeg, budget-maxSeg)
		if !ok {
			continue
		}
		r := cm.RecomputeFLOPs(plan)
		p := cm.PeakMemory(plan)
		if p > budget {
			continue
		}
		if bestRecompute < 0 || r < bestRecompute || (r == bestRecompute && p < bestPeak) {
			best, bestRecompute, bestPeak = plan, r, p
		}
	}
	return best, bestRecompute >= 0
}

// minRecomputePlan finds the checkpoint set minimising recompute FLOPs such
// that (a) every segment's rematerialised sum is ≤ maxSeg and (b) the total
// kept size is ≤ keptBudget. Recompute and kept size are both additive
// along the chain of checkpoints, so this is a bi-criteria shortest path:
// each node keeps its Pareto frontier of (recompute, kept) states. The
// frontier is capped defensively (paretoCap) — in practice layer chains
// yield tiny frontiers because sizes repeat.
func (cm CostModel) minRecomputePlan(maxSeg, keptBudget int64) (Plan, bool) {
	n := len(cm.Sizes)
	type state struct {
		recompute int64
		kept      int64
		prev      int // previous checkpoint layer (-1 = network input)
		prevIdx   int // index into dp[prev]'s frontier
	}
	const paretoCap = 256
	dp := make([][]state, n)
	insert := func(i int, s state) {
		if s.kept > keptBudget {
			return
		}
		// Drop s if dominated; drop states s dominates.
		out := dp[i][:0]
		for _, e := range dp[i] {
			if e.recompute <= s.recompute && e.kept <= s.kept {
				return // dominated by an existing state: discard s
			}
			if !(s.recompute <= e.recompute && s.kept <= e.kept) {
				out = append(out, e)
			}
		}
		dp[i] = append(out, s)
		if len(dp[i]) > paretoCap {
			dp[i] = dp[i][:paretoCap]
		}
	}
	for i := 0; i < n; i++ {
		if cm.intervalSize(0, i) <= maxSeg {
			insert(i, state{recompute: cm.intervalCost(0, i-1), kept: cm.Sizes[i], prev: -1})
		}
		for j := 0; j < i; j++ {
			if cm.intervalSize(j+1, i) > maxSeg {
				continue
			}
			edgeR := cm.intervalCost(j+1, i-1)
			for idx, e := range dp[j] {
				insert(i, state{
					recompute: e.recompute + edgeR,
					kept:      e.kept + cm.Sizes[i],
					prev:      j, prevIdx: idx,
				})
			}
		}
	}
	if len(dp[n-1]) == 0 {
		return Plan{}, false
	}
	best := 0
	for idx, e := range dp[n-1] {
		if e.recompute < dp[n-1][best].recompute {
			best = idx
		}
	}
	keep := make([]bool, n)
	i, idx := n-1, best
	for i >= 0 {
		keep[i] = true
		s := dp[i][idx]
		i, idx = s.prev, s.prevIdx
	}
	return Plan{Keep: keep}, true
}

// intervalSize sums Sizes[a..b] (inclusive); empty when a > b.
func (cm CostModel) intervalSize(a, b int) int64 {
	var s int64
	for i := a; i <= b; i++ {
		s += cm.Sizes[i]
	}
	return s
}

// intervalCost sums Costs[a..b] (inclusive); empty when a > b.
func (cm CostModel) intervalCost(a, b int) int64 {
	var s int64
	for i := a; i <= b; i++ {
		s += cm.Costs[i]
	}
	return s
}

// OffloadModel estimates the offloading tradeoff (§2.3): keeping a fraction
// of activation bytes on the device and streaming the rest to host memory.
// Returns the device-resident activation bytes and the extra seconds per
// step spent writing and re-reading the offloaded bytes over the link.
func OffloadModel(prof device.Profile, activationBytes int64, offloadFrac float64) (deviceBytes int64, extraSeconds float64) {
	if offloadFrac < 0 || offloadFrac > 1 {
		panic("checkpoint: offload fraction out of [0,1]")
	}
	off := int64(float64(activationBytes) * offloadFrac)
	deviceBytes = activationBytes - off
	// Each offloaded byte crosses the link twice: spill after forward,
	// fill before backward.
	extraSeconds = 2 * (prof.LinkLatencyS + float64(off)/prof.LinkBandwidth)
	return deviceBytes, extraSeconds
}
