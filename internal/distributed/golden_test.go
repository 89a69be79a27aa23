package distributed

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"dlsys/internal/fault"
	"dlsys/internal/guard"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/robust"
	"dlsys/internal/sim"
)

// goldenScenario is one fault/compression/defence setting of the pinned
// table, applied on top of the base run.
type goldenScenario struct {
	name  string
	apply func(*Config)
	// exercised reports whether a run under topology topo actually hit
	// the paths the scenario is there for.
	exercised func(topo Topology, s Stats) bool
}

var goldenScenarios = []goldenScenario{
	{"compress", func(c *Config) { c.TopK, c.QuantBits = 0.25, 8 },
		func(Topology, Stats) bool { return true }},
	{"faults", func(c *Config) {
		c.Fault = fault.Config{Seed: 7, RestartDelay: 2, Schedule: []fault.Window{
			{Kind: fault.KindCrash, Prob: 0.05}, {Kind: fault.KindStraggle, Prob: 0.2, Factor: 8},
			{Kind: fault.KindDrop, Prob: 0.2}, {Kind: fault.KindCorrupt, Prob: 0.1}}}
		c.DropSlowestK, c.MaxRetries = 1, 2
	}, func(topo Topology, s Stats) bool {
		return s.Crashes > 0 && (topo != TopoDefault || s.Timeouts > 0)
	}},
	{"byzantine", func(c *Config) {
		c.Fault = fault.Byzantine(40, fault.KindSignFlip, 1)
		c.Fault.Schedule = append(c.Fault.Schedule, fault.Window{Kind: fault.KindBatchCorrupt, Prob: 0.1})
		c.Aggregator = robust.CoordMedian{}
		c.Reputation = &robust.ReputationConfig{Patience: 2, Probation: 3, Warmup: 1}
		c.Guard = &guard.Policy{Mode: guard.Enforce}
	}, func(_ Topology, s Stats) bool {
		return s.ByzantineAttacks > 0 && s.Readmissions > 0 && s.GuardSkipped+s.GuardRestores > 0
	}},
	{"links", func(c *Config) {
		c.Fault = fault.Config{Seed: 99, PartitionRounds: 2, Schedule: []fault.Window{
			{Kind: fault.KindLinkDrop, Prob: 0.15}, {Kind: fault.KindLinkSlow, Prob: 0.15 / 2},
			{Kind: fault.KindPartition, Prob: 0.15}}}
		c.Churn = []ChurnEvent{
			{Round: 2, Worker: 3, Join: false},
			{Round: 5, Worker: 6, Join: true}, // fresh joiner: starts absent
			{Round: 9, Worker: 3, Join: true},
		}
		c.SnapshotPeriod = 2
	}, func(topo Topology, s Stats) bool {
		return s.CatchUps > 0 && s.Leaves > 0 && (topo == TopoDefault || s.PartitionedRounds > 0 && s.LinkDropped > 0)
	}},
	{"noef-drop-all", func(c *Config) {
		c.NoErrorFeedback, c.TopK = true, 0.5
		c.Fault = fault.Config{Seed: 3, Schedule: []fault.Window{{Kind: fault.KindDrop, Prob: 1}}} // every star upload times out
	}, func(topo Topology, s Stats) bool {
		return topo != TopoDefault || s.Timeouts > 0 && s.AveragingRound == 0
	}},
}

// goldenPins holds, per "topology/H/scenario" row, the run digest (final
// parameters, every Stats field, and the quarantine, registry and kernel
// fingerprints) and the tracer fingerprint, generated before the star and
// the collectives shared one round implementation. Only the tracer values
// of the four synchronous collective rows with an explicit aggregator
// (byzantine, H1) moved since: a collective sync round now records its
// spans in the star's order — compute, aggregate, comm — instead of
// compute, comm, aggregate, with the same names and stamps.
var goldenPins = map[string][2]uint64{
	"star/H1/compress":            {0xbe71260c4d956f5c, 0xaea0cc2a493eb593},
	"star/H1/faults":              {0x6603cb61f79612dc, 0xf07b7638f97da689},
	"star/H1/byzantine":           {0xe47e7ceccaefb8d9, 0xf00e95f3b59441a7},
	"star/H1/links":               {0x2762912369071501, 0xa9265bbbcfe70ede},
	"star/H1/noef-drop-all":       {0xf48ddf7b11101bc0, 0x2871574820a4d0b3},
	"star/H3/compress":            {0xd7e8c4a18368a60a, 0xe1673281a89650ca},
	"star/H3/faults":              {0xb15c03f4c2b20739, 0x9462a2c0d7df5b07},
	"star/H3/byzantine":           {0x871853cd6d1f9842, 0x98a3ef1163d7b04c},
	"star/H3/links":               {0xcf66f69f48d1fa70, 0xe1673281a89650ca},
	"star/H3/noef-drop-all":       {0xebc3596c70f43781, 0x329f22615e78766e},
	"all-to-all/H1/compress":      {0xfc1d190307572a8f, 0x756c020b55b6bd73},
	"all-to-all/H1/faults":        {0x83aa7ce5636a87f7, 0x700cd82bae0e9e4a},
	"all-to-all/H1/byzantine":     {0x0f280db88970dfd0, 0x10abd46bc69983ee},
	"all-to-all/H1/links":         {0xd8637acc15a32c30, 0x31d0256b1150d8de},
	"all-to-all/H1/noef-drop-all": {0x9b20bbd443be33dd, 0x0a17a8df28579946},
	"all-to-all/H3/compress":      {0x3b2deb3296dff360, 0xee1a33c908ba7f2a},
	"all-to-all/H3/faults":        {0x88d79a8585d3de10, 0xe6067deb8760c8e9},
	"all-to-all/H3/byzantine":     {0x75fe7386e0eb0030, 0x38b220e05b857326},
	"all-to-all/H3/links":         {0x85f0971fa3146c08, 0x0079338285a7b35c},
	"all-to-all/H3/noef-drop-all": {0x6884c9a25d5cf2fb, 0xee1a33c908ba7f2a},
	"ring/H1/compress":            {0x502cdc142728e410, 0x45a3634026491faa},
	"ring/H1/faults":              {0x1278ab700b846673, 0xcf51abbbf2b0051b},
	"ring/H1/byzantine":           {0xb605eae97c385867, 0xeb2aea38f0be04c1},
	"ring/H1/links":               {0x37812cc95f87f743, 0x41a067654a21955a},
	"ring/H1/noef-drop-all":       {0x0ba6577a221c82b7, 0xcd0186b1dd8d8654},
	"ring/H3/compress":            {0x0d3255f25ec690d6, 0x9a5913d62c3de42a},
	"ring/H3/faults":              {0xc33fa00c0b2acfcd, 0x457eff1d6e2056de},
	"ring/H3/byzantine":           {0x674244823956a01c, 0x955396806caabdb0},
	"ring/H3/links":               {0x59959ecf4a9770de, 0xbcb380d3b7d2aa9e},
	"ring/H3/noef-drop-all":       {0xf36df7df268bb304, 0x9a5913d62c3de42a},
	"tree/H1/compress":            {0xde6f36a26bdcc5a4, 0x264af991ad571746},
	"tree/H1/faults":              {0xc8ac4bd0c74af2db, 0x2f3c9a1da544d74f},
	"tree/H1/byzantine":           {0xef2124a8514c55a0, 0xb5642422b6d05ed6},
	"tree/H1/links":               {0x4c62e850667820eb, 0x895bc631193c9067},
	"tree/H1/noef-drop-all":       {0x141dca6a9cbba3e6, 0xeada60787473c534},
	"tree/H3/compress":            {0xedcd7a63675e6665, 0xf83576f1402b54c0},
	"tree/H3/faults":              {0xce75b2b79761aae8, 0x6470208fa7f619f7},
	"tree/H3/byzantine":           {0x5bfa38e49dc72d0b, 0x64846a0e1ab466e9},
	"tree/H3/links":               {0xc0a89257fe6356b8, 0x9022cbf3b0c0bb68},
	"tree/H3/noef-drop-all":       {0xe8796f9e76f50c92, 0xf83576f1402b54c0},
	"hier/H1/compress":            {0x3d8585579a6e8156, 0x70316bf160b81463},
	"hier/H1/faults":              {0x3c17aca921929f44, 0x9e6243c8f7265284},
	"hier/H1/byzantine":           {0x241d1940c763d558, 0x4647c08cbd75574b},
	"hier/H1/links":               {0x7e698568100f62e2, 0xbc99117a5b2eca6f},
	"hier/H1/noef-drop-all":       {0xe41f8bedb3038c3d, 0xcb6d8874b7d5f09c},
	"hier/H3/compress":            {0x183e03f7541bf406, 0xa2c2590ce92ed9fa},
	"hier/H3/faults":              {0x9b21b343afb2b843, 0x4ba4be6f0e1a8ebd},
	"hier/H3/byzantine":           {0x8f9813a67bdc45f0, 0x651025721cf36ae0},
	"hier/H3/links":               {0x67beaad245685345, 0x1587cd652d23b588},
	"hier/H3/noef-drop-all":       {0x4b705df883b30d00, 0xa2c2590ce92ed9fa},
}

// TestRoundPathsPinned pins the observable outcome of every round path —
// the parameter-server star and each collective, in the synchronous and
// the Local SGD regime — under compression, worker faults, Byzantine
// defences, link faults with churn, and total upload loss. Unlike the
// same-code replay tests, these constants catch a refactor that changes
// behaviour. Every row also reconciles its registry with Stats before the
// registry is hashed; Reconcile reads without registering, so no pin moves.
func TestRoundPathsPinned(t *testing.T) {
	train, _ := distDataset(5)
	y := nn.OneHot(train.Labels, 3)
	topos := append([]Topology{TopoDefault}, Topologies()...)
	for _, topo := range topos {
		for _, h := range []int{1, 3} {
			for _, sc := range goldenScenarios {
				name := fmt.Sprintf("%s/H%d/%s", topoName(topo), h, sc.name)
				cfg := Config{
					Workers: 8, Arch: distArch, Epochs: 2, BatchSize: 8, LR: 0.1,
					AveragePeriod: h, Topology: topo,
					Obs: obs.NewHandle(), Kernel: sim.New(),
				}
				sc.apply(&cfg)
				net, stats := mustTrain(t, 17, train.X, y, cfg)
				if !sc.exercised(topo, stats) {
					t.Errorf("%s: scenario not exercised: %+v", name, stats)
				}
				if err := stats.Reconcile(cfg.Obs); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				got := [2]uint64{runDigest(t, net.ParamVector(), stats, cfg), cfg.Obs.Tracer.Fingerprint()}
				if want, ok := goldenPins[name]; !ok || got != want {
					t.Errorf("%s: got {%#016x, %#016x}, want %#016x", name, got[0], got[1], want)
				}
			}
		}
	}
}

func topoName(t Topology) string {
	if t == TopoDefault {
		return "star"
	}
	return string(t)
}

// runDigest folds the final parameters, every Stats field (reflectively, so
// a new field cannot be left out), and the quarantine, registry and kernel
// fingerprints into one FNV-1a value.
func runDigest(t *testing.T, params []float64, stats Stats, cfg Config) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range params {
		word(math.Float64bits(p))
	}
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			word(uint64(f.Int()))
		case reflect.Float64:
			word(math.Float64bits(f.Float()))
		case reflect.Slice:
			for k := 0; k < f.Len(); k++ {
				word(math.Float64bits(f.Index(k).Float()))
			}
		case reflect.Ptr:
			word(stats.Quarantine.Fingerprint())
		default:
			t.Fatalf("Stats.%s: kind %s not folded", v.Type().Field(i).Name, f.Kind())
		}
	}
	word(cfg.Obs.Reg.Fingerprint())
	word(cfg.Kernel.Fingerprint())
	return h.Sum64()
}
