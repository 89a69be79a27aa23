// Elastic: topology-aware distributed training that survives link faults
// and worker churn. The same run is repeated over the four collective
// topologies (all-to-all mesh, ring all-reduce, binary-tree
// reduce-broadcast, hierarchical two-level) to show how simulated
// time-per-round scales with worker count and how exactly the planner's
// analytic cost model predicts it. A ring is then run under per-link
// faults plus a scheduled churn of leavers and joiners: the transport
// heals around dead links by detouring, joiners catch up from CRC-valid
// snapshots, and the whole run replays bit-identically.
package main

import (
	"fmt"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
	"dlsys/internal/planner"
)

func main() {
	arch := nn.MLPConfig{In: 32, Hidden: []int{192, 96}, Out: 4}
	payload := int64(nn.NewMLP(rand.New(rand.NewSource(1)), arch).NumParams()) * 4

	fmt.Println("simulated seconds per averaging round by topology and scale")
	fmt.Println("(dense ~25k-param gradient on cluster nodes; planner = analytic model)")
	fmt.Println("topology     n    measured     planner      vs mesh")
	for _, n := range []int{8, 64} {
		rng := rand.New(rand.NewSource(300 + int64(n)))
		ds := data.GaussianMixture(rng, 8*n, 32, 4, 3.0)
		y := nn.OneHot(ds.Labels, 4)
		var mesh float64
		for _, topo := range distributed.Topologies() {
			_, stats, err := distributed.Train(301, ds.X, y, distributed.Config{
				Workers: n, Arch: arch, Epochs: 1, BatchSize: 8, LR: 0.05,
				AveragePeriod: 1, Topology: topo, Device: device.ClusterNode,
			})
			if err != nil {
				fmt.Println("ERROR:", err)
				return
			}
			round := stats.CommSeconds / float64(stats.CommRounds)
			pred := planner.CollectiveTime(string(topo), n, payload, device.ClusterNode)
			if topo == distributed.TopoAllToAll {
				mesh = round
			}
			fmt.Printf("%-11s  %-3d  %-10.6f  %-10.6f  %.2fx\n",
				topo, n, round, pred, mesh/round)
		}
	}
	best, s := planner.BestCollective(256, payload, device.ClusterNode)
	fmt.Printf("\nplanner's pick for n=256 at this payload: %s (%.6f s/round)\n", best, s)

	fmt.Println("\nring all-reduce, 16 workers, link faults + scheduled churn:")
	rng := rand.New(rand.NewSource(310))
	ds := data.GaussianMixture(rng, 256, 8, 3, 3.2)
	y := nn.OneHot(ds.Labels, 3)
	cfg := distributed.Config{
		Workers: 16, Arch: nn.MLPConfig{In: 8, Hidden: []int{16}, Out: 3},
		Epochs: 8, BatchSize: 8, LR: 0.1, AveragePeriod: 1,
		Topology: distributed.TopoRing, Device: device.ClusterNode,
		Fault: fault.LinkRate(311, 0.3), SnapshotPeriod: 2,
		Churn: []distributed.ChurnEvent{
			{Round: 3, Worker: 4},             // leave
			{Round: 3, Worker: 9},             // leave
			{Round: 7, Worker: 4, Join: true}, // rejoin from snapshot
			{Round: 9, Worker: 9, Join: true},
		},
	}
	netA, sA, err := distributed.Train(312, ds.X, y, cfg)
	if err != nil {
		fmt.Println("ERROR:", err)
		return
	}
	fmt.Printf("accuracy=%.3f heals=%d degraded=%d excluded=%d\n",
		netA.Accuracy(ds.X, ds.Labels), sA.TopoHeals, sA.TopoDegraded, sA.LinkExcluded)
	fmt.Printf("leaves=%d joins=%d snapshot catch-ups=%d membership epochs=%d\n",
		sA.Leaves, sA.Joins, sA.CatchUps, sA.MembershipEpochs)
	fmt.Printf("dropped=%d slow-hops=%d partitioned rounds=%d comm=%.4f sim-s\n",
		sA.LinkDropped, sA.LinkSlowHops, sA.PartitionedRounds, sA.CommSeconds)

	netB, sB, _ := distributed.Train(312, ds.X, y, cfg)
	identical := sA.BytesSent == sB.BytesSent && sA.CommSeconds == sB.CommSeconds &&
		sA.TopoHeals == sB.TopoHeals && sA.LinkDropped == sB.LinkDropped &&
		sA.CatchUps == sB.CatchUps && sA.MembershipEpochs == sB.MembershipEpochs
	a, b := netA.ParamVector(), netB.ParamVector()
	for i := range a {
		if a[i] != b[i] {
			identical = false
			break
		}
	}
	fmt.Printf("replay bit-identical (stats + every parameter): %v\n", identical)
}
