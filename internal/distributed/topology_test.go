package distributed

import (
	"math"
	"testing"

	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
)

// newTestTransport builds a transport with a nil-handle obs shim, matching
// how NewJob wires one up.
func newTestTransport(inj *fault.Injector, maxRetries int) *transport {
	return &transport{
		inj: inj, prof: device.GPUSmall, maxRetries: maxRetries,
		backoffS: 1e-3, obs: newDistObs(nil, 0),
	}
}

func members(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// collectPhases materialises phaseHops output for structural assertions.
func collectPhases(kind Topology, m []int, payload int64, groupSize int) [][]hop {
	var phases [][]hop
	phaseHops(kind, m, payload, groupSize, nil, func(seq int, hops []hop) {
		if seq != len(phases) {
			panic("phase seq out of order")
		}
		phases = append(phases, append([]hop(nil), hops...))
	})
	return phases
}

func TestPhaseHopsStructure(t *testing.T) {
	const payload = int64(1000)
	for _, n := range []int{2, 3, 8, 17, 64} {
		m := members(n)

		// All-to-all: n-1 phases of n full-payload hops.
		a2a := collectPhases(TopoAllToAll, m, payload, 0)
		if len(a2a) != n-1 {
			t.Fatalf("n=%d all-to-all: %d phases, want %d", n, len(a2a), n-1)
		}
		for _, ph := range a2a {
			if len(ph) != n {
				t.Fatalf("n=%d all-to-all phase has %d hops, want %d", n, len(ph), n)
			}
			for _, h := range ph {
				if h.bytes != payload {
					t.Fatalf("n=%d all-to-all hop bytes %d, want %d", n, h.bytes, payload)
				}
			}
		}

		// Ring: 2(n-1) phases of n segment hops, each to the successor.
		ring := collectPhases(TopoRing, m, payload, 0)
		if len(ring) != 2*(n-1) {
			t.Fatalf("n=%d ring: %d phases, want %d", n, len(ring), 2*(n-1))
		}
		seg := ceilDiv(payload, n)
		for _, ph := range ring {
			if len(ph) != n {
				t.Fatalf("n=%d ring phase has %d hops, want %d", n, len(ph), n)
			}
			for _, h := range ph {
				if h.bytes != seg {
					t.Fatalf("n=%d ring hop bytes %d, want segment %d", n, h.bytes, seg)
				}
				if h.dst != (h.src+1)%n {
					t.Fatalf("n=%d ring hop %d->%d is not a successor hop", n, h.src, h.dst)
				}
			}
		}

		// Tree: 2*depth phases; reduce phases total n-1 hops (every non-root
		// sends to its heap parent exactly once), broadcast mirrors them.
		tree := collectPhases(TopoTree, m, payload, 0)
		depth := heapDepth(n - 1)
		if len(tree) != 2*depth {
			t.Fatalf("n=%d tree: %d phases, want %d", n, len(tree), 2*depth)
		}
		reduceHops := 0
		for _, ph := range tree[:depth] {
			reduceHops += len(ph)
		}
		if reduceHops != n-1 {
			t.Fatalf("n=%d tree reduce: %d hops, want %d", n, reduceHops, n-1)
		}

		// Hier: every phase's hop endpoints are members; per-member traffic
		// exists (every member appears as a src or dst at least once).
		hier := collectPhases(TopoHier, m, payload, 0)
		touched := make(map[int]bool)
		for _, ph := range hier {
			for _, h := range ph {
				touched[h.src] = true
				touched[h.dst] = true
			}
		}
		if len(touched) != n {
			t.Fatalf("n=%d hier touches %d members, want %d", n, len(touched), n)
		}
	}
}

func TestHierGroupSize(t *testing.T) {
	if gs := hierGroupSize(0, 64); gs != 8 {
		t.Fatalf("default group size for 64 members = %d, want 8 (ceil sqrt)", gs)
	}
	if gs := hierGroupSize(0, 2); gs != 2 {
		t.Fatalf("minimum group size = %d, want 2", gs)
	}
	if gs := hierGroupSize(100, 8); gs != 8 {
		t.Fatalf("group size should clamp to member count, got %d", gs)
	}
	if gs := hierGroupSize(4, 64); gs != 4 {
		t.Fatalf("configured group size ignored: got %d, want 4", gs)
	}
}

// Clean links: exchange excludes nobody, charges phase-serialized time, and a
// ring moves fewer bytes per member than the all-to-all mesh at n=8.
func TestExchangeCleanLinks(t *testing.T) {
	net := newTestTransport(nil, 4)
	const payload = int64(100_000)
	type res struct {
		stats Stats
		s     float64
	}
	out := map[Topology]res{}
	for _, topo := range Topologies() {
		var stats Stats
		excluded, s, degraded := net.collective(topo, members(8), payload, 0, 0, &stats)
		if len(excluded) != 0 || degraded {
			t.Fatalf("%s: clean exchange excluded %d, degraded %v", topo, len(excluded), degraded)
		}
		if s <= 0 {
			t.Fatalf("%s: clean exchange charged no time", topo)
		}
		if stats.LinkDropped != 0 || stats.TopoHeals != 0 || stats.TopoDegraded != 0 {
			t.Fatalf("%s: clean exchange recorded faults: %+v", topo, stats)
		}
		out[topo] = res{stats, s}
	}
	if rb, ab := out[TopoRing].stats.BytesSent, out[TopoAllToAll].stats.BytesSent; rb >= ab {
		t.Fatalf("ring moved %d bytes >= all-to-all %d", rb, ab)
	}
	// Determinism: a second walk over the same round reproduces the time.
	for _, topo := range Topologies() {
		var stats Stats
		_, s, _ := net.collective(topo, members(8), payload, 0, 0, &stats)
		if s != out[topo].s {
			t.Fatalf("%s: exchange time not deterministic: %g vs %g", topo, s, out[topo].s)
		}
	}
}

// Certain-loss links force the healing detour and then the all-to-all
// degradation; the degraded walk draws independently, so with LinkDropProb 1
// everything is excluded but the accounting reconciles.
func TestExchangeDegradesUnderTotalLinkLoss(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 7, LinkDropProb: 1})
	net := newTestTransport(inj, 3)
	for _, topo := range []Topology{TopoRing, TopoTree, TopoHier} {
		var stats Stats
		excluded, s, degraded := net.collective(topo, members(8), 1000, 0, 0, &stats)
		if !degraded || stats.TopoDegraded != 1 {
			t.Fatalf("%s: total link loss did not degrade (stats %+v)", topo, stats)
		}
		if s <= 0 {
			t.Fatalf("%s: degraded exchange charged no time", topo)
		}
		if stats.LinkDropped == 0 {
			t.Fatalf("%s: no link drops recorded under LinkDropProb=1", topo)
		}
		if stats.LinkExcluded != len(excluded) {
			t.Fatalf("%s: LinkExcluded %d != excluded set %d", topo, stats.LinkExcluded, len(excluded))
		}
	}
}

// Moderate loss on a ring heals (retries or detours succeed) without
// degrading, and never excludes a majority.
func TestExchangeHealsModerateLoss(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 11, LinkDropProb: 0.3})
	net := newTestTransport(inj, 4)
	var stats Stats
	healedRounds := 0
	for round := 0; round < 20; round++ {
		excluded, _, degraded := net.collective(TopoRing, members(8), 1000, round, 0, &stats)
		if degraded {
			t.Fatalf("round %d: ring degraded under 30%% loss with retries", round)
		}
		if 2*len(excluded) >= 8 {
			t.Fatalf("round %d: majority excluded without degradation", round)
		}
		if stats.TopoHeals > 0 {
			healedRounds++
		}
	}
	if stats.Retransmissions == 0 {
		t.Fatal("no retransmissions under 30% link loss")
	}
	if healedRounds == 0 {
		t.Fatal("no healing reroutes over 20 rounds of 30% loss")
	}
}

// A certain partition excludes exactly the minority side and counts one
// partitioned round; both sides of the cut agree via the pure hash.
func TestExchangePartitionExcludesMinority(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 3, PartitionProb: 1, PartitionRounds: 2})
	net := newTestTransport(inj, 4)
	start, active := inj.PartitionAt(5)
	if !active {
		t.Fatal("PartitionProb=1 produced no partition")
	}
	var side0 int
	for _, w := range members(9) {
		if inj.PartitionSide(w, start) == 0 {
			side0++
		}
	}
	minority := side0
	if 9-side0 < side0 {
		minority = 9 - side0
	}
	var stats Stats
	excluded, _, _ := net.collective(TopoRing, members(9), 1000, 5, 0, &stats)
	if stats.PartitionedRounds != 1 {
		t.Fatalf("PartitionedRounds = %d, want 1", stats.PartitionedRounds)
	}
	if len(excluded) < minority {
		t.Fatalf("excluded %d members, want at least the %d-member minority", len(excluded), minority)
	}
	for w := range excluded {
		if w < 0 || w >= 9 {
			t.Fatalf("excluded unknown member %d", w)
		}
	}
}

func TestLinkSlowHopsAccounted(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 5, LinkSlowProb: 1, LinkSlowFactor: 8})
	net := newTestTransport(inj, 4)
	var slowStats Stats
	_, slowS, _ := net.collective(TopoRing, members(4), 1000, 0, 0, &slowStats)
	clean := newTestTransport(nil, 4)
	var cleanStats Stats
	_, cleanS, _ := clean.collective(TopoRing, members(4), 1000, 0, 0, &cleanStats)
	if slowStats.LinkSlowHops == 0 {
		t.Fatal("LinkSlowProb=1 recorded no slow hops")
	}
	if slowS <= cleanS {
		t.Fatalf("slow links took %g <= clean %g", slowS, cleanS)
	}
}

func TestTopologyConfigValidation(t *testing.T) {
	train, _ := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	base := Config{Workers: 4, Arch: distArch, Epochs: 1, BatchSize: 16, LR: 0.1}

	bad := base
	bad.Topology = "torus"
	if _, _, err := Train(1, train.X, y, bad); err == nil {
		t.Fatal("unknown topology accepted")
	} else if ce, ok := err.(*ConfigError); !ok || ce.Field != "Topology" {
		t.Fatalf("want *ConfigError{Topology}, got %v", err)
	}

	bad = base
	bad.GroupSize = 1
	if _, _, err := Train(1, train.X, y, bad); err == nil {
		t.Fatal("group size 1 accepted")
	}

	bad = base
	bad.SnapshotKeep = -1
	if _, _, err := Train(1, train.X, y, bad); err == nil {
		t.Fatal("negative SnapshotKeep accepted")
	}

	for name, churn := range map[string][]ChurnEvent{
		"out-of-range worker": {{Round: 0, Worker: 9, Join: false}},
		"negative round":      {{Round: -1, Worker: 0, Join: false}},
		"duplicate event":     {{Round: 2, Worker: 0, Join: false}, {Round: 2, Worker: 0, Join: true}},
		"join while present":  {{Round: 1, Worker: 0, Join: false}, {Round: 2, Worker: 0, Join: true}, {Round: 3, Worker: 0, Join: true}},
		"leave while absent":  {{Round: 1, Worker: 0, Join: true}, {Round: 2, Worker: 0, Join: false}, {Round: 3, Worker: 0, Join: false}},
	} {
		bad = base
		bad.Churn = churn
		if _, _, err := Train(1, train.X, y, bad); err == nil {
			t.Fatalf("churn schedule %q accepted", name)
		} else if ce, ok := err.(*ConfigError); !ok || ce.Field != "Churn" {
			t.Fatalf("churn %q: want *ConfigError{Churn}, got %v", name, err)
		}
	}
}

// Every explicit topology trains to the same accuracy as the legacy star on
// clean links, and records collective accounting the star never touches.
func TestCollectiveTopologiesConverge(t *testing.T) {
	train, test := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	base := Config{Workers: 8, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1, AveragePeriod: 1}
	_, starStats := mustTrain(t, 10, train.X, y, base)
	for _, topo := range Topologies() {
		cfg := base
		cfg.Topology = topo
		net, stats := mustTrain(t, 10, train.X, y, cfg)
		if acc := net.Accuracy(test.X, test.Labels); acc < 0.85 {
			t.Fatalf("%s: accuracy %.3f", topo, acc)
		}
		// Same seed, same screening, clean links: losses are bit-identical
		// to the star (only the communication pricing differs).
		for e := range stats.EpochLoss {
			if stats.EpochLoss[e] != starStats.EpochLoss[e] {
				t.Fatalf("%s: epoch %d loss %g != star %g", topo, e, stats.EpochLoss[e], starStats.EpochLoss[e])
			}
		}
		if stats.CommRounds != stats.AveragingRound {
			t.Fatalf("%s: CommRounds %d != AveragingRound %d", topo, stats.CommRounds, stats.AveragingRound)
		}
		if stats.CommSeconds <= 0 {
			t.Fatalf("%s: no collective time charged", topo)
		}
		if stats.MembershipEpochs != 1 {
			t.Fatalf("%s: MembershipEpochs = %d, want 1 (static membership)", topo, stats.MembershipEpochs)
		}
	}
}

// Legacy runs (zero-value topology, no churn) keep every new counter zero.
func TestLegacyRunTouchesNoTopologyCounters(t *testing.T) {
	train, _ := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	_, stats := mustTrain(t, 10, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 3, BatchSize: 16, LR: 0.1, AveragePeriod: 1,
	})
	if stats.LinkDropped != 0 || stats.LinkSlowHops != 0 || stats.LinkExcluded != 0 ||
		stats.PartitionedRounds != 0 || stats.TopoHeals != 0 || stats.TopoDegraded != 0 ||
		stats.MembershipEpochs != 0 || stats.Joins != 0 || stats.Leaves != 0 ||
		stats.CatchUps != 0 || stats.CommRounds != 0 || stats.CommSeconds != 0 {
		t.Fatalf("legacy run touched topology counters: %+v", stats)
	}
	if stats.Snapshots != 0 {
		t.Fatalf("fault-free legacy run took %d snapshots", stats.Snapshots)
	}
}

func churnSchedule() []ChurnEvent {
	return []ChurnEvent{
		{Round: 3, Worker: 2, Join: false},
		{Round: 3, Worker: 5, Join: false},
		{Round: 12, Worker: 2, Join: true},
		{Round: 12, Worker: 5, Join: true},
		{Round: 6, Worker: 7, Join: true}, // fresh joiner: starts absent
	}
}

// Elastic membership: leavers stop contributing, joiners catch up from a
// CRC-valid snapshot, epochs count each distinct member set, and the whole
// run is bit-reproducible.
func TestChurnDeterministicWithCatchUp(t *testing.T) {
	train, test := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	cfg := Config{
		Workers: 8, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1, Topology: TopoRing, Churn: churnSchedule(), SnapshotPeriod: 2,
	}
	net1, stats1 := mustTrain(t, 10, train.X, y, cfg)
	net2, stats2 := mustTrain(t, 10, train.X, y, cfg)

	if stats1.Leaves != 2 || stats1.Joins != 3 {
		t.Fatalf("Leaves=%d Joins=%d, want 2 and 3", stats1.Leaves, stats1.Joins)
	}
	if stats1.CatchUps != 3 {
		t.Fatalf("CatchUps = %d, want 3 (snapshots exist by round 6)", stats1.CatchUps)
	}
	// Member sets: {0..6}\{} start (7 absent) → leave 2,5 → join 7 → rejoin
	// 2,5: at least 4 distinct sets.
	if stats1.MembershipEpochs < 4 {
		t.Fatalf("MembershipEpochs = %d, want >= 4", stats1.MembershipEpochs)
	}
	if stats1.Snapshots == 0 {
		t.Fatal("churn run took no snapshots")
	}
	if acc := net1.Accuracy(test.X, test.Labels); acc < 0.80 {
		t.Fatalf("churned run accuracy %.3f", acc)
	}

	// Bit-identical replay.
	p1, p2 := net1.ParamVector(), net2.ParamVector()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs across identical runs: %g vs %g", i, p1[i], p2[i])
		}
	}
	if stats1.CommSeconds != stats2.CommSeconds || stats1.BytesSent != stats2.BytesSent ||
		stats1.MembershipEpochs != stats2.MembershipEpochs {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", stats1, stats2)
	}
}

// Churn composes with the legacy star too: topology is optional.
func TestChurnOnDefaultStar(t *testing.T) {
	train, _ := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	_, stats := mustTrain(t, 10, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 5, BatchSize: 16, LR: 0.1, AveragePeriod: 1,
		Churn: []ChurnEvent{{Round: 2, Worker: 3, Join: false}, {Round: 8, Worker: 3, Join: true}},
	})
	if stats.Leaves != 1 || stats.Joins != 1 {
		t.Fatalf("Leaves=%d Joins=%d, want 1 and 1", stats.Leaves, stats.Joins)
	}
	if stats.MembershipEpochs < 2 {
		t.Fatalf("MembershipEpochs = %d, want >= 2", stats.MembershipEpochs)
	}
}

// Local SGD (AveragePeriod > 1) over a collective topology converges and
// accounts collective rounds only on averaging steps.
func TestLocalSGDOverCollective(t *testing.T) {
	train, test := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	net, stats := mustTrain(t, 10, train.X, y, Config{
		Workers: 4, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1,
		AveragePeriod: 4, Topology: TopoTree,
	})
	if acc := net.Accuracy(test.X, test.Labels); acc < 0.85 {
		t.Fatalf("local SGD over tree accuracy %.3f", acc)
	}
	if stats.CommRounds != stats.AveragingRound {
		t.Fatalf("CommRounds %d != AveragingRound %d", stats.CommRounds, stats.AveragingRound)
	}
	if stats.CommRounds >= stats.Steps {
		t.Fatalf("local SGD exchanged every step: %d rounds, %d steps", stats.CommRounds, stats.Steps)
	}
}

// Training under link faults stays within a loss band of the clean run and
// keeps the exclusion ledger consistent.
func TestTrainingSurvivesLinkFaults(t *testing.T) {
	train, test := distDataset(1)
	y := nn.OneHot(train.Labels, 3)
	clean := Config{Workers: 8, Arch: distArch, Epochs: 15, BatchSize: 16, LR: 0.1,
		AveragePeriod: 1, Topology: TopoRing}
	faulty := clean
	faulty.Fault = fault.LinkRate(99, 0.1)
	netC, statsC := mustTrain(t, 10, train.X, y, clean)
	netF, statsF := mustTrain(t, 10, train.X, y, faulty)
	if statsF.LinkDropped == 0 {
		t.Fatal("faulty run dropped no hops")
	}
	cleanLoss := statsC.EpochLoss[len(statsC.EpochLoss)-1]
	faultLoss := statsF.EpochLoss[len(statsF.EpochLoss)-1]
	if math.IsNaN(faultLoss) || faultLoss > cleanLoss*1.5 {
		t.Fatalf("final loss %.4f under link faults, clean %.4f (allowed 1.5x)", faultLoss, cleanLoss)
	}
	accC := netC.Accuracy(test.X, test.Labels)
	accF := netF.Accuracy(test.X, test.Labels)
	if accF < accC-0.15 {
		t.Fatalf("accuracy %.3f under link faults, clean %.3f", accF, accC)
	}
}

// send gives up after MaxRetries attempts with certain loss; broadcast
// persists past the per-round budget and always reports delivery.
func TestTransportRetryExhaustion(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 1, DropProb: 1})
	net := newTestTransport(inj, 3)
	var stats Stats
	ok, elapsed := net.send(0, 0, 100, &stats)
	if ok {
		t.Fatal("send succeeded with DropProb=1")
	}
	if stats.DroppedMessages != 3 || stats.Retransmissions != 2 {
		t.Fatalf("send retries: %+v, want 3 drops / 2 retransmissions", stats)
	}
	if elapsed <= 0 {
		t.Fatal("failed send charged no time")
	}
	var bstats Stats
	ok, _ = net.broadcast(0, 0, 100, &bstats)
	if !ok {
		t.Fatal("broadcast reported failure; the server persists")
	}
	if bstats.DroppedMessages == 0 {
		t.Fatal("broadcast recorded no drops under DropProb=1")
	}
}

// hop exhausts retries, then heals via the detour when the extra draw
// succeeds; with certain loss even the detour fails.
func TestHopDetourHealing(t *testing.T) {
	certain := fault.NewInjector(fault.Config{Seed: 1, LinkDropProb: 1})
	net := newTestTransport(certain, 2)
	var stats Stats
	l := certain.Link(0, 1, 0)
	ok, elapsed := net.hop(&l, net.wire(100), 100, 0, &stats)
	if ok {
		t.Fatal("hop delivered with LinkDropProb=1")
	}
	if stats.LinkDropped != 3 { // 2 attempts + failed detour
		t.Fatalf("LinkDropped = %d, want 3", stats.LinkDropped)
	}
	if elapsed <= 0 {
		t.Fatal("failed hop charged no time")
	}

	// p=0.9: over many (round, seq) keys some detours succeed → TopoHeals.
	flaky := fault.NewInjector(fault.Config{Seed: 2, LinkDropProb: 0.9})
	net = newTestTransport(flaky, 2)
	var fstats Stats
	l = flaky.Link(0, 1, 0)
	for seq := 0; seq < 200; seq++ {
		net.hop(&l, net.wire(100), 100, seq, &fstats)
	}
	if fstats.TopoHeals == 0 {
		t.Fatal("no detour heals over 200 hops at p=0.9")
	}
}

// shardIndices partitions [0, n) exactly: disjoint, exhaustive, balanced to
// within one element, and stable across calls.
func TestShardIndicesPartition(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{10, 3}, {1, 1}, {7, 7}, {5, 8}, {640, 8}, {97, 13},
	} {
		shards := shardIndices(tc.n, tc.workers)
		if len(shards) != tc.workers {
			t.Fatalf("n=%d w=%d: %d shards", tc.n, tc.workers, len(shards))
		}
		seen := make(map[int]int)
		minLen, maxLen := tc.n, 0
		for _, s := range shards {
			if len(s) < minLen {
				minLen = len(s)
			}
			if len(s) > maxLen {
				maxLen = len(s)
			}
			for _, i := range s {
				seen[i]++
			}
		}
		if len(seen) != tc.n {
			t.Fatalf("n=%d w=%d: %d distinct indices covered", tc.n, tc.workers, len(seen))
		}
		for i, c := range seen {
			if c != 1 || i < 0 || i >= tc.n {
				t.Fatalf("n=%d w=%d: index %d appears %d times", tc.n, tc.workers, i, c)
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("n=%d w=%d: shard imbalance %d..%d", tc.n, tc.workers, minLen, maxLen)
		}
	}
}
