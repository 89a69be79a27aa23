package planner

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/distributed"
	"dlsys/internal/nn"
)

// The analytic model must agree with the executed collectives: a clean-link
// training run's measured CommSeconds is CommRounds identical exchanges of
// the dense model payload, each of which CollectiveTime predicts.
func TestCollectiveTimeMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := data.GaussianMixture(rng, 240, 5, 3, 3.5)
	y := nn.OneHot(ds.Labels, 3)
	arch := nn.MLPConfig{In: 5, Hidden: []int{24}, Out: 3}
	modelSize := nn.NewMLP(rand.New(rand.NewSource(1)), arch).NumParams()
	payload := int64(modelSize) * 4 // dense float32 wire

	for _, workers := range []int{5, 7, 8, 12} {
		for _, topo := range CollectiveTopologies() {
			_, stats, err := distributed.Train(10, ds.X, y, distributed.Config{
				Workers: workers, Arch: arch, Epochs: 2, BatchSize: 16, LR: 0.1,
				AveragePeriod: 1, Topology: distributed.Topology(topo),
				Device: device.ClusterNode,
			})
			if err != nil {
				t.Fatalf("%s n=%d: %v", topo, workers, err)
			}
			if stats.CommRounds == 0 {
				t.Fatalf("%s n=%d: no collective rounds", topo, workers)
			}
			want := float64(stats.CommRounds) *
				CollectiveTime(topo, workers, payload, device.ClusterNode)
			if rel := math.Abs(stats.CommSeconds-want) / want; rel > 1e-9 {
				t.Fatalf("%s n=%d: measured CommSeconds %g, model %g (rel err %g)",
					topo, workers, stats.CommSeconds, want, rel)
			}
		}
	}
}

// At cluster scale with realistic gradient payloads the scalable topologies
// beat the mesh, and the advantage grows with n.
func TestCollectiveTimeScaling(t *testing.T) {
	const payload = int64(100_000) // ~25k-param dense gradient
	prof := device.ClusterNode
	for _, n := range []int{8, 64, 256} {
		a2a := CollectiveTime(CollectiveAllToAll, n, payload, prof)
		ring := CollectiveTime(CollectiveRing, n, payload, prof)
		tree := CollectiveTime(CollectiveTree, n, payload, prof)
		hier := CollectiveTime(CollectiveHier, n, payload, prof)
		if n >= 64 {
			if ring >= a2a {
				t.Fatalf("n=%d: ring %g >= all-to-all %g", n, ring, a2a)
			}
			if tree >= a2a {
				t.Fatalf("n=%d: tree %g >= all-to-all %g", n, tree, a2a)
			}
			if hier >= a2a {
				t.Fatalf("n=%d: hier %g >= all-to-all %g", n, hier, a2a)
			}
		}
	}
	// The mesh's cost is linear in n; the tree's logarithmic.
	t64 := CollectiveTime(CollectiveTree, 64, payload, prof)
	t256 := CollectiveTime(CollectiveTree, 256, payload, prof)
	a64 := CollectiveTime(CollectiveAllToAll, 64, payload, prof)
	a256 := CollectiveTime(CollectiveAllToAll, 256, payload, prof)
	if a256/a64 < 3.5 {
		t.Fatalf("all-to-all 256/64 ratio %g, want ~4 (linear)", a256/a64)
	}
	if t256/t64 > 1.5 {
		t.Fatalf("tree 256/64 ratio %g, want ~1.3 (logarithmic)", t256/t64)
	}
}

func TestCollectiveTimeEdgeCases(t *testing.T) {
	if CollectiveTime(CollectiveRing, 1, 1000, device.ClusterNode) != 0 {
		t.Fatal("single member should cost zero")
	}
	if CollectiveTime("torus", 8, 1000, device.ClusterNode) != 0 {
		t.Fatal("unknown topology should cost zero")
	}
	best, s := BestCollective(256, 100_000, device.ClusterNode)
	if best == CollectiveAllToAll || s <= 0 {
		t.Fatalf("BestCollective(256) = %q %g; the mesh cannot win at scale", best, s)
	}
}
