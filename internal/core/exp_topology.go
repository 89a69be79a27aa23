package core

import (
	"fmt"
	"math"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/device"
	"dlsys/internal/distributed"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/planner"
)

// X12 studies elastic, topology-aware distributed training: a weak-scaling
// matrix of collective topologies (all-to-all mesh, ring all-reduce,
// binary-tree reduce-broadcast, two-level hierarchy) × failure scenarios
// (clean, link faults, worker churn, both) at n up to 256 workers. The
// claims: every topology converges within 1.5x of the clean mesh's loss
// under every scenario; per-round simulated communication time of ring and
// tree beats the mesh at n >= 64 (and the planner's analytic CollectiveTime
// model predicts the measured times); forced dead links degrade the
// topology to the mesh fallback rather than losing quorum; the topology
// Stats ledger reconciles exactly with the live obs counters; and the whole
// instrumented scenario replays bit-identically.

func init() {
	register(Experiment{
		ID: "X12", Section: "2.1",
		Title: "Elastic topology-aware distributed training",
		Claim: "Across n ∈ {8..256} × {mesh, ring, tree, hier} × {clean, link faults, churn, both}: loss stays within 1.5x of the clean mesh, ring/tree beat the mesh's simulated time per round at n >= 64 (matching the planner's analytic model), quorum loss degrades to the mesh fallback, stats reconcile exactly with obs counters, and runs replay bit-identically",
		Run:   runX12,
	})
}

// x12LossFloor keeps vs_clean ratios meaningful when the clean loss is tiny.
const x12LossFloor = 0.05

var x12Scenarios = []string{"clean", "faults", "churn", "both"}

func x12Ns(scale Scale) []int {
	if scale == Full {
		return []int{8, 64, 256}
	}
	return []int{8, 64}
}

// x12Churn is the deterministic elastic-membership schedule at scale n:
// n/8 workers leave at round 3 and rejoin at round 12 (catching up from
// snapshots), and worker 1 is a fresh joiner that first appears at round 6.
// Worker 0 never churns — it reports the epoch loss.
func x12Churn(n int) []distributed.ChurnEvent {
	leavers := n / 8
	if leavers < 1 {
		leavers = 1
	}
	var evs []distributed.ChurnEvent
	for i := 0; i < leavers; i++ {
		w := 2 + i
		evs = append(evs,
			distributed.ChurnEvent{Round: 3, Worker: w, Join: false},
			distributed.ChurnEvent{Round: 12, Worker: w, Join: true})
	}
	evs = append(evs, distributed.ChurnEvent{Round: 6, Worker: 1, Join: true})
	return evs
}

var x12Arch = nn.MLPConfig{In: 5, Hidden: []int{16}, Out: 3}

// x12Config builds one convergence-matrix cell: 16 rounds (8 epochs × 2
// steps) so the churn schedule's round-12 rejoins land mid-run.
func x12Config(n int, topo distributed.Topology, scen string) distributed.Config {
	cfg := distributed.Config{
		Workers: n, Arch: x12Arch, Epochs: 8, BatchSize: 8, LR: 0.1,
		AveragePeriod: 1, Topology: topo, Device: device.ClusterNode,
		SnapshotPeriod: 2,
	}
	if scen == "faults" || scen == "both" {
		cfg.Fault = fault.LinkRate(137, 0.12)
	}
	if scen == "churn" || scen == "both" {
		cfg.Churn = x12Churn(n)
	}
	return cfg
}

func lastLoss(stats distributed.Stats) float64 {
	if len(stats.EpochLoss) == 0 {
		return math.NaN()
	}
	return stats.EpochLoss[len(stats.EpochLoss)-1]
}

func runX12(scale Scale) *Table {
	t := &Table{ID: "X12", Title: "Elastic topology-aware distributed training",
		Claim:   "collective topologies survive link faults and churn within 1.5x clean-mesh loss; ring/tree beat the mesh per round at n >= 64 matching the planner model; quorum loss degrades to the mesh; stats reconcile with obs; replay is bit-identical",
		Columns: []string{"cell", "detail", "ok"}}

	topos := distributed.Topologies()
	allConv, anyHeals := true, false

	// Phase 1: convergence matrix — n × topology × scenario. The clean mesh
	// is each n's baseline; every other cell must land within 1.5x.
	for _, n := range x12Ns(scale) {
		rng := rand.New(rand.NewSource(200 + int64(n)))
		ds := data.GaussianMixture(rng, 16*n, 5, 3, 3.2)
		y := nn.OneHot(ds.Labels, 3)

		var baseLoss float64
		for _, topo := range topos {
			for _, scen := range x12Scenarios {
				_, stats, err := distributed.Train(201, ds.X, y, x12Config(n, topo, scen))
				cell := fmt.Sprintf("conv-n%d-%s-%s", n, topo, scen)
				if err != nil {
					t.AddRow(cell, err.Error(), yesNo(false))
					allConv = false
					continue
				}
				loss := lastLoss(stats)
				if topo == distributed.TopoAllToAll && scen == "clean" {
					baseLoss = math.Max(loss, x12LossFloor)
				}
				ratio := math.Max(loss, x12LossFloor) / baseLoss
				ok := !math.IsNaN(loss) && ratio <= 1.5
				allConv = allConv && ok
				if stats.TopoHeals > 0 {
					anyHeals = true
				}
				detail := fmt.Sprintf("loss=%.4f vs_clean=%.3f comm_s=%.4g heals=%d degraded=%d excl=%d joins=%d leaves=%d catchups=%d epochs=%d",
					loss, ratio, stats.CommSeconds, stats.TopoHeals, stats.TopoDegraded,
					stats.LinkExcluded, stats.Joins, stats.Leaves, stats.CatchUps, stats.MembershipEpochs)
				t.AddRow(cell, detail, yesNo(ok))

				// Churn cells must execute the full schedule.
				if scen == "churn" || scen == "both" {
					wantLeaves := len(x12Churn(n)) / 2
					churnOK := stats.Leaves == wantLeaves && stats.Joins == wantLeaves+1 &&
						stats.CatchUps == stats.Joins && stats.MembershipEpochs >= 4
					allConv = allConv && churnOK
					if !churnOK {
						t.AddRow(cell+"-churn-ledger",
							fmt.Sprintf("leaves=%d joins=%d catchups=%d epochs=%d (want %d/%d/%d/>=4)",
								stats.Leaves, stats.Joins, stats.CatchUps, stats.MembershipEpochs,
								wantLeaves, wantLeaves+1, wantLeaves+1),
							yesNo(false))
					}
				}
			}
		}
	}
	t.AddRow("invariant-a-convergence",
		"every topology × scenario cell within 1.5x of its n's clean mesh loss; churn ledgers exact",
		yesNo(allConv))

	// Phase 2: forced quorum loss. At a 0.55 link-drop rate with a 2-attempt
	// budget the ring cannot keep half its members; the round must degrade
	// to the mesh fallback instead of silently under-aggregating.
	degCfg := x12Config(8, distributed.TopoRing, "clean")
	degCfg.Fault = fault.Config{Seed: 138, Schedule: []fault.Window{{Kind: fault.KindLinkDrop, Prob: 0.55}}}
	degCfg.MaxRetries = 2
	rngD := rand.New(rand.NewSource(208))
	dsD := data.GaussianMixture(rngD, 16*8, 5, 3, 3.2)
	_, degStats, degErr := distributed.Train(201, dsD.X, nn.OneHot(dsD.Labels, 3), degCfg)
	degOK := degErr == nil && degStats.TopoDegraded > 0 && !math.IsNaN(lastLoss(degStats))
	t.AddRow("invariant-b-degradation",
		fmt.Sprintf("ring at 55%% link loss: degraded=%d heals=%d dropped=%d loss=%.4f",
			degStats.TopoDegraded, degStats.TopoHeals, degStats.LinkDropped, lastLoss(degStats)),
		yesNo(degOK))

	// Phase 3: weak-scaling timing on a ~25k-parameter model (realistic
	// gradient payloads make inter-node links bandwidth-bound). Ring and
	// tree must beat the mesh per round from n=64 up, and the planner's
	// closed-form CollectiveTime must predict each measured per-round time.
	archT := nn.MLPConfig{In: 32, Hidden: []int{192, 96}, Out: 4}
	payload := int64(nn.NewMLP(rand.New(rand.NewSource(1)), archT).NumParams()) * 4
	timingOK, modelOK := true, true
	for _, n := range x12Ns(scale) {
		rngT := rand.New(rand.NewSource(210 + int64(n)))
		dsT := data.GaussianMixture(rngT, 16*n, 32, 4, 3.0)
		yT := nn.OneHot(dsT.Labels, 4)
		perRound := map[distributed.Topology]float64{}
		for _, topo := range topos {
			_, stats, err := distributed.Train(211, dsT.X, yT, distributed.Config{
				Workers: n, Arch: archT, Epochs: 1, BatchSize: 8, LR: 0.05,
				AveragePeriod: 1, Topology: topo, Device: device.ClusterNode,
			})
			cell := fmt.Sprintf("time-n%d-%s", n, topo)
			if err != nil || stats.CommRounds == 0 {
				t.AddRow(cell, fmt.Sprintf("err=%v comm_rounds=%d", err, stats.CommRounds), yesNo(false))
				timingOK = false
				continue
			}
			measured := stats.CommSeconds / float64(stats.CommRounds)
			perRound[topo] = measured
			pred := planner.CollectiveTime(string(topo), n, payload, device.ClusterNode)
			predRatio := pred / measured
			cellModelOK := predRatio > 0.95 && predRatio < 1.05
			modelOK = modelOK && cellModelOK
			t.AddRow(cell,
				fmt.Sprintf("round_s=%.6g planner_pred=%.6g pred_ratio=%.4f", measured, pred, predRatio),
				yesNo(cellModelOK))
		}
		if n >= 64 {
			fasterOK := perRound[distributed.TopoRing] < perRound[distributed.TopoAllToAll] &&
				perRound[distributed.TopoTree] < perRound[distributed.TopoAllToAll]
			timingOK = timingOK && fasterOK
			t.AddRow(fmt.Sprintf("time-n%d-crossover", n),
				fmt.Sprintf("ring=%.6g tree=%.6g hier=%.6g < mesh=%.6g",
					perRound[distributed.TopoRing], perRound[distributed.TopoTree],
					perRound[distributed.TopoHier], perRound[distributed.TopoAllToAll]),
				yesNo(fasterOK))
		}
	}
	t.AddRow("invariant-c-scaling",
		"ring and tree beat the mesh's simulated time per round at n >= 64; planner model within 5% everywhere",
		yesNo(timingOK && modelOK))

	// Phase 4: ledger reconciliation — the topology Stats block must equal
	// the live obs counters exactly on a faulty, churning, instrumented run.
	hR := obs.NewHandle()
	recCfg := x12Config(16, distributed.TopoRing, "both")
	recCfg.Obs = hR
	rngR := rand.New(rand.NewSource(216))
	dsR := data.GaussianMixture(rngR, 16*16, 5, 3, 3.2)
	_, recStats, recErr := distributed.Train(201, dsR.X, nn.OneHot(dsR.Labels, 3), recCfg)
	if recErr == nil {
		recErr = recStats.Reconcile(hR)
	}
	if recErr != nil {
		t.AddRow("recon", recErr.Error(), yesNo(false))
	}
	t.AddRow("invariant-d-reconciliation",
		fmt.Sprintf("12 topology counters + comm_seconds gauge equal their Stats fields exactly (heals=%d excl=%d)",
			recStats.TopoHeals, recStats.LinkExcluded),
		yesNo(recErr == nil))

	// Phase 5: replay — the same instrumented faulty+churn scenario twice;
	// metric and trace fingerprints must match bit-for-bit.
	var prints [2]string
	replayOK := true
	for i := 0; i < 2; i++ {
		h := obs.NewHandle()
		cfg := x12Config(16, distributed.TopoHier, "both")
		cfg.Obs = h
		_, stats, err := distributed.Train(201, dsR.X, nn.OneHot(dsR.Labels, 3), cfg)
		if err != nil {
			replayOK = false
			t.AddRow(fmt.Sprintf("replay/%d", i+1), err.Error(), yesNo(false))
			continue
		}
		prints[i] = fmt.Sprintf("%016x:%016x:%d:%g",
			h.Reg.Fingerprint(), h.Tracer.Fingerprint(), stats.BytesSent, stats.CommSeconds)
	}
	replayOK = replayOK && prints[0] == prints[1]
	t.AddRow("invariant-e-replay", fmt.Sprintf("rep1=%s rep2=%s", prints[0], prints[1]), yesNo(replayOK))

	t.Shape = "all cells converge within 1.5x of the clean mesh with heals observed (" + yesNo(anyHeals) +
		"); ring/tree beat the mesh at n >= 64 and the planner model predicts the measured times; " +
		"quorum loss degrades to the mesh; stats reconcile exactly; replays are bit-identical"
	return t
}
