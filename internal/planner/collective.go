package planner

// Analytic cost model for the distributed trainer's collective topologies:
// the planner-side mirror of internal/distributed's phase enumeration, so a
// strategy search can price "which topology at which scale" without running
// the simulator. Phase structure matches the executed collectives exactly —
// phases serialize, hops within a phase run concurrently (a phase costs its
// slowest hop), and every hop is priced by device.TransferTime — so on
// clean links CollectiveTime reproduces the trainer's measured per-round
// CommSeconds up to floating-point accumulation order. The package tests
// cross-validate the model against the executed collectives.

import (
	"math"
	"math/bits"

	"dlsys/internal/device"
)

// Collective topology names, mirroring distributed.Topology values. Kept as
// strings so the planner depends only on internal/device.
const (
	CollectiveAllToAll = "all-to-all"
	CollectiveRing     = "ring"
	CollectiveTree     = "tree"
	CollectiveHier     = "hier"
)

// CollectiveTopologies lists the modeled topologies in sweep order.
func CollectiveTopologies() []string {
	return []string{CollectiveAllToAll, CollectiveRing, CollectiveTree, CollectiveHier}
}

func collCeilDiv(a int64, b int) int64 {
	if b <= 0 {
		return a
	}
	return (a + int64(b) - 1) / int64(b)
}

// collHeapDepth is the depth of index i in a 0-based binary heap.
func collHeapDepth(i int) int { return bits.Len(uint(i+1)) - 1 }

// collGroupSize is TopoHier's intra-group width over m ≥ 2 members:
// ceil(sqrt(m)), at least 2, which never exceeds m.
func collGroupSize(m int) int {
	return max(2, int(math.Ceil(math.Sqrt(float64(m)))))
}

// CollectiveTime returns the simulated seconds one clean-link
// reduce-broadcast of payloadBytes takes over the topology spanning n
// members of the given profile. Unknown topologies and n < 2 cost zero.
func CollectiveTime(topology string, n int, payloadBytes int64, prof device.Profile) float64 {
	if n < 2 {
		return 0
	}
	hop := func(bytes int64) float64 { return device.TransferTime(prof, prof, bytes) }
	switch topology {
	case CollectiveAllToAll:
		// m-1 serialized phases of concurrent full-payload exchanges.
		return float64(n-1) * hop(payloadBytes)
	case CollectiveRing:
		// Reduce-scatter + all-gather: 2(m-1) phases of 1/m segments.
		return float64(2*(n-1)) * hop(collCeilDiv(payloadBytes, n))
	case CollectiveTree:
		// Binary-tree reduce then broadcast: one phase per level each way.
		return float64(2*collHeapDepth(n-1)) * hop(payloadBytes)
	case CollectiveHier:
		gs := collGroupSize(n)
		// Group lengths: full groups of gs plus one remainder group.
		var lens []int
		for i := 0; i < n; i += gs {
			l := gs
			if i+l > n {
				l = n - i
			}
			lens = append(lens, l)
		}
		var total float64
		// Intra-group rings run concurrently with phases aligned across
		// groups: phase s costs the slowest hop among groups still running
		// (smaller groups carry bigger segments but finish earlier).
		for s := 0; s < 2*(gs-1); s++ {
			var phase float64
			for _, l := range lens {
				if l < 2 || s >= 2*(l-1) {
					continue
				}
				if t := hop(collCeilDiv(payloadBytes, l)); t > phase {
					phase = t
				}
			}
			total += phase
		}
		// Tree reduce-broadcast across the group leaders.
		if k := len(lens); k >= 2 {
			total += float64(2*collHeapDepth(k-1)) * hop(payloadBytes)
		}
		// Binomial broadcast from each leader back into its group.
		for s := 0; 1<<s < gs; s++ {
			active := false
			for _, l := range lens {
				if 1<<s < l {
					active = true
					break
				}
			}
			if active {
				total += hop(payloadBytes)
			}
		}
		return total
	}
	return 0
}

// BestCollective returns the modeled-cheapest topology for the scale and
// payload, with its predicted seconds — the planner's answer to "how should
// these n members average gradients".
func BestCollective(n int, payloadBytes int64, prof device.Profile) (string, float64) {
	best, bestT := "", math.Inf(1)
	for _, topo := range CollectiveTopologies() {
		if t := CollectiveTime(topo, n, payloadBytes, prof); t < bestT {
			best, bestT = topo, t
		}
	}
	return best, bestT
}
