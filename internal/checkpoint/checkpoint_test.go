package checkpoint

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/device"
	"dlsys/internal/nn"
)

// deepMLP builds an n-block Dense+ReLU chain for checkpointing tests.
func deepMLP(rng *rand.Rand, blocks, width int) *nn.Network {
	var layers []nn.Layer
	prev := width
	for i := 0; i < blocks; i++ {
		layers = append(layers,
			nn.NewDense(rng, name("fc", i), prev, width),
			nn.NewReLU(name("relu", i)))
	}
	layers = append(layers, nn.NewDense(rng, "head", width, 3))
	return nn.NewNetwork(layers...)
}

func name(p string, i int) string { return p + string(rune('a'+i)) }

func uniformModel(n int) CostModel {
	cm := CostModel{}
	for i := 0; i < n; i++ {
		cm.Sizes = append(cm.Sizes, 100)
		cm.Costs = append(cm.Costs, 1000)
	}
	return cm
}

func TestStoreAllVsSqrtNMemory(t *testing.T) {
	cm := uniformModel(36)
	all := cm.PeakMemory(StoreAll(36))
	sq := cm.PeakMemory(SqrtN(36))
	if sq >= all/2 {
		t.Fatalf("sqrt(n) memory %d not well below store-all %d", sq, all)
	}
	if cm.RecomputeFLOPs(StoreAll(36)) != 0 {
		t.Fatal("store-all should not recompute")
	}
	if cm.RecomputeFLOPs(SqrtN(36)) == 0 {
		t.Fatal("sqrt(n) must recompute something")
	}
	// Sublinear scaling: memory grows ~sqrt with depth.
	m36 := cm.PeakMemory(SqrtN(36))
	cm144 := uniformModel(144)
	m144 := cm144.PeakMemory(SqrtN(144))
	if float64(m144) > 2.6*float64(m36) {
		t.Fatalf("memory should grow ~2x from n=36 to n=144 (sqrt), got %d -> %d", m36, m144)
	}
}

func TestRecomputeAtMostOneExtraForward(t *testing.T) {
	cm := uniformModel(49)
	var totalC int64
	for _, c := range cm.Costs {
		totalC += c
	}
	if extra := cm.RecomputeFLOPs(SqrtN(49)); extra > totalC {
		t.Fatalf("recompute %d exceeds one forward %d", extra, totalC)
	}
}

func TestOptimalPlanRespectsBudget(t *testing.T) {
	cm := uniformModel(32)
	// The single-recompute scheme needs at least ~2·√n·size ≈ 1150 here.
	for _, budget := range []int64{1300, 1600, 2000, 3200} {
		plan, ok := cm.OptimalPlan(budget)
		if !ok {
			t.Fatalf("no plan found for budget %d", budget)
		}
		if got := cm.PeakMemory(plan); got > budget {
			t.Fatalf("budget %d violated: peak %d", budget, got)
		}
	}
}

func TestOptimalPlanBeatsOrMatchesSqrtN(t *testing.T) {
	cm := uniformModel(36)
	sq := SqrtN(36)
	budget := cm.PeakMemory(sq)
	opt, ok := cm.OptimalPlan(budget)
	if !ok {
		t.Fatal("optimal plan infeasible at sqrt(n)'s own budget")
	}
	if cm.RecomputeFLOPs(opt) > cm.RecomputeFLOPs(sq) {
		t.Fatalf("optimal recompute %d worse than sqrt(n) %d at same budget",
			cm.RecomputeFLOPs(opt), cm.RecomputeFLOPs(sq))
	}
}

func TestOptimalPlanInfeasibleBudget(t *testing.T) {
	cm := uniformModel(8)
	if _, ok := cm.OptimalPlan(50); ok {
		t.Fatal("budget below a single activation must be infeasible")
	}
}

func TestOptimalPlanUsesStoreAllWhenRoomy(t *testing.T) {
	cm := uniformModel(8)
	plan, ok := cm.OptimalPlan(1 << 30)
	if !ok || cm.RecomputeFLOPs(plan) != 0 {
		t.Fatal("with a huge budget the plan should store everything")
	}
}

func TestFromNetworkCostModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := deepMLP(rng, 3, 8)
	cm := FromNetwork(net, []int{8}, 4)
	if len(cm.Sizes) != len(net.Layers) {
		t.Fatalf("size entries %d != layers %d", len(cm.Sizes), len(net.Layers))
	}
	// Every Dense/ReLU output here is batch*width floats except the head.
	for i := 0; i < len(cm.Sizes)-1; i++ {
		if cm.Sizes[i] != 4*8 {
			t.Fatalf("layer %d activation %d, want 32", i, cm.Sizes[i])
		}
	}
	if cm.Sizes[len(cm.Sizes)-1] != 4*3 {
		t.Fatal("head activation wrong")
	}
}

func TestOffloadModel(t *testing.T) {
	devBytes, extra := OffloadModel(device.GPUSmall, 1e9, 0.5)
	if devBytes != 5e8 {
		t.Fatalf("device bytes %d", devBytes)
	}
	want := 2 * (device.GPUSmall.LinkLatencyS + 5e8/device.GPUSmall.LinkBandwidth)
	if math.Abs(extra-want) > 1e-12 {
		t.Fatalf("extra seconds %g, want %g", extra, want)
	}
	// Monotone: more offload, more time, less memory.
	d0, t0 := OffloadModel(device.GPUSmall, 1e9, 0)
	d1, t1 := OffloadModel(device.GPUSmall, 1e9, 1)
	if d1 >= d0 || t1 <= t0 {
		t.Fatal("offload monotonicity violated")
	}
}

func TestSegmentsPartitionChain(t *testing.T) {
	p := SqrtN(10)
	segs := p.Segments()
	prevEnd := -1
	for _, s := range segs {
		if s[0] != prevEnd {
			t.Fatalf("segments not contiguous: %v", segs)
		}
		prevEnd = s[1]
	}
	if prevEnd != 9 {
		t.Fatalf("segments do not cover chain: %v", segs)
	}
}
