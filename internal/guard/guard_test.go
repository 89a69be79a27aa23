package guard

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/fault"
	"dlsys/internal/nn"
	"dlsys/internal/obs"
	"dlsys/internal/tensor"
)

func newTrainer(seed int64) (*nn.Trainer, *data.Dataset, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.GaussianMixture(rng, 240, 6, 3, 4)
	net := nn.NewMLP(rand.New(rand.NewSource(seed+1)), nn.MLPConfig{In: 6, Hidden: []int{24}, Out: 3})
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rand.New(rand.NewSource(seed+2)))
	return tr, ds, nn.OneHot(ds.Labels, ds.Classes)
}

func TestNonFiniteBatchSkipped(t *testing.T) {
	tr, ds, y := newTrainer(1)
	g := New(tr, Policy{})
	bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3})
	before := append([]float64(nil), tr.Net.ParamVector()...)
	bx.Data[3] = math.NaN()
	_, applied := g.Step(bx, by)
	if applied {
		t.Fatal("NaN batch must not be applied")
	}
	after := tr.Net.ParamVector()
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatal("skipped step must leave parameters bit-identical")
		}
	}
	if g.Ledger().Skipped != 1 {
		t.Fatalf("ledger skipped = %d, want 1", g.Ledger().Skipped)
	}
}

func TestSchemaRejectsBadBatchBeforeCompute(t *testing.T) {
	tr, ds, y := newTrainer(2)
	schema := NewBatchSchema(ds.X, 6)
	g := New(tr, Policy{Schema: schema})
	bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3})
	bx.Data[0] = 1e12 // wildly out of schema range but finite
	_, applied := g.Step(bx, by)
	if applied {
		t.Fatal("out-of-range batch must be skipped")
	}
	if len(g.Ledger().Incidents) != 1 || g.Ledger().Incidents[0].Kind != KindBadBatch {
		t.Fatalf("want one bad-batch incident, got %v", g.Ledger().Incidents)
	}
}

func TestBatchSchemaChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := tensor.RandNormal(rng, 0, 1, 100, 4)
	s := NewBatchSchema(ref, 3)
	if s.Features != 4 {
		t.Fatalf("features = %d", s.Features)
	}
	ok4 := tensor.RandNormal(rng, 0, 1, 8, 4)
	if _, ok, _ := s.Check(ok4); !ok {
		t.Fatal("in-distribution batch rejected")
	}
	if reason, ok, _ := s.Check(tensor.New(8, 5)); ok || reason == "" {
		t.Fatal("feature mismatch accepted")
	}
	bad := tensor.RandNormal(rng, 0, 1, 8, 4)
	bad.Data[5] = math.Inf(1)
	if _, ok, _ := s.Check(bad); ok {
		t.Fatal("non-finite batch accepted")
	}
	shifted := tensor.RandNormal(rng, 50, 0.1, 8, 4)
	if _, ok, _ := s.Check(shifted); ok {
		t.Fatal("out-of-range batch accepted")
	}
	drift := tensor.RandNormal(rng, s.RefStd*4, 0.1, 8, 4)
	if _, ok, drifted := s.Check(drift); !ok || !drifted {
		t.Fatalf("drifted batch: ok=%v drifted=%v", ok, drifted)
	}
}

func TestRollbackRestoresBitIdenticalParams(t *testing.T) {
	tr, ds, y := newTrainer(4)
	h := obs.NewHandle()
	g := New(tr, Policy{Obs: h})
	// A few healthy steps, fewer than snapshotEvery, then a forced snapshot.
	for i := 0; i < 5; i++ {
		bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3})
		if _, applied := g.Step(bx, by); !applied {
			t.Fatalf("healthy step %d skipped", i)
		}
	}
	g.Snapshot()
	want := append([]float64(nil), tr.Net.ParamVector()...)
	// Three consecutive poisoned batches escalate to rollback.
	for i := 0; i < 3; i++ {
		bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3})
		bx.Data[i] = math.NaN()
		g.Step(bx, by)
	}
	if g.Ledger().Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", g.Ledger().Rollbacks)
	}
	got := tr.Net.ParamVector()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("param %d not bit-identical after rollback", i)
		}
	}
	if g.BaseLR() >= 0.01 {
		t.Fatalf("base LR %g not damped after rollback", g.BaseLR())
	}
	// The counters and the rollback span reconcile with the ledger, and one
	// extra increment is named.
	if err := g.Ledger().Reconcile(h); err != nil {
		t.Fatal(err)
	}
	h.Counter("guard.rollbacks").Inc()
	if err := g.Ledger().Reconcile(h); err == nil || !strings.Contains(err.Error(), "guard.rollbacks=") {
		t.Fatalf("a bumped guard.rollbacks was not named: %v", err)
	}
}

func TestOptimizerStateResetDeterministic(t *testing.T) {
	// After ResetState, an optimizer must behave bit-identically to a
	// fresh one on the same gradient sequence.
	runTraj := func(opt nn.Optimizer, reset bool) []float64 {
		rng := rand.New(rand.NewSource(7))
		net := nn.NewMLP(rng, nn.MLPConfig{In: 4, Hidden: []int{8}, Out: 2})
		tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), opt, rand.New(rand.NewSource(8)))
		ds := data.GaussianMixture(rand.New(rand.NewSource(9)), 64, 4, 2, 3)
		y := nn.OneHot(ds.Labels, ds.Classes)
		if reset {
			// Pollute optimizer state, then reset it.
			bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3})
			snap := append([]float64(nil), net.ParamVector()...)
			tr.Step(bx, by)
			net.SetParamVector(snap)
			opt.(nn.StateResetter).ResetState()
		}
		for i := 0; i < 5; i++ {
			bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3})
			tr.Step(bx, by)
		}
		return net.ParamVector()
	}
	fresh := runTraj(nn.NewAdam(0.01), false)
	reset := runTraj(nn.NewAdam(0.01), true)
	for i := range fresh {
		if math.Float64bits(fresh[i]) != math.Float64bits(reset[i]) {
			t.Fatalf("adam: trajectory diverges at param %d after ResetState", i)
		}
	}
}

func TestLossSpikeBacksOffLR(t *testing.T) {
	tr, ds, y := newTrainer(5)
	g := New(tr, Policy{})
	for i := 0; i < 8; i++ {
		bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3})
		g.Step(bx, by)
	}
	lrBefore := g.BaseLR()
	// Shuffled labels drive the loss far above baseline without NaNs.
	bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3})
	inj := fault.NewInjector(fault.Config{Seed: 11, Schedule: []fault.Window{{Kind: fault.KindLabelNoise, Prob: 1}}})
	inj.ShuffleLabels(by.Data, 4, 3, 0, 0)
	for i := range bx.Data {
		bx.Data[i] *= 40 // push logits far off to force a large loss
	}
	_, applied := g.Step(bx, by)
	if applied {
		t.Fatal("spiking step must be discarded")
	}
	if g.BaseLR() >= lrBefore {
		t.Fatalf("LR %g not backed off from %g", g.BaseLR(), lrBefore)
	}
	if g.Ledger().Backoffs != 1 {
		t.Fatalf("backoffs = %d, want 1", g.Ledger().Backoffs)
	}
}

func TestGradExplosionClipped(t *testing.T) {
	tr, ds, y := newTrainer(6)
	g := New(tr, Policy{})
	// Six healthy steps fill a 4-norm window; the spike detector is still
	// warming up.
	g.normWin = newNormWindow(4)
	for i := 0; i < 6; i++ {
		bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3})
		g.Step(bx, by)
	}
	bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3})
	for i := range bx.Data {
		bx.Data[i] *= 1e4 // finite but explosive inputs
	}
	_, applied := g.Step(bx, by)
	if !applied {
		t.Fatal("clipped step should still apply")
	}
	if g.Ledger().Clipped != 1 {
		t.Fatalf("clipped = %d, want 1", g.Ledger().Clipped)
	}
	if !tensor.AllFinite(tr.Net.ParamVector()) {
		t.Fatal("parameters non-finite after clipped update")
	}
}

func TestLRSpikeRecoveredByRollback(t *testing.T) {
	tr, ds, y := newTrainer(8)
	g := New(tr, Policy{})
	inj := fault.NewInjector(fault.Config{Seed: 3, Schedule: []fault.Window{{Kind: fault.KindLRSpike, Prob: 0.2, Factor: 1e6}}})
	stats := g.Fit(ds.X, y, FitConfig{
		Epochs: 4, BatchSize: 16,
		LRSpike: func(step int) float64 { return inj.LRSpikeFactor(0, step) },
	})
	if !tensor.AllFinite(tr.Net.ParamVector()) {
		t.Fatal("guarded training left non-finite parameters")
	}
	final := stats.EpochLoss[len(stats.EpochLoss)-1]
	if math.IsNaN(final) || math.IsInf(final, 0) {
		t.Fatalf("final loss %v not finite", final)
	}
	if g.Ledger().Len() == 0 {
		t.Fatal("expected incidents under a 20% LR-spike rate")
	}
	// A ×1e6 spike moves no parameter far enough to make a loss
	// non-finite: the guard meets each one as an exploding gradient on the
	// steps after it and clips, and never rolls back
	// (TestLRSpikeReachesRollback holds a spike to a rollback).
	for _, in := range g.Ledger().Incidents {
		if in.Kind != KindGradExplosion || in.Action != ActionClipGrad {
			t.Fatalf("incident %v, want every incident grad-explosion/clip-grad", in)
		}
	}
}

// A ×1e200 spike under Adam moves the parameters to about 1e198, finite,
// so the post-update scan passes, but the next loss is NaN: the guard
// skips the batch, and at the third bad step in a row it rolls back. The
// run must roll back at least once, only for non-finite losses, and end on
// finite parameters. It checks no loss: at this factor a spiked update can
// be the step that takes the periodic snapshot, and from then on every
// rollback restores that snapshot, so later epochs average a NaN loss.
func TestLRSpikeReachesRollback(t *testing.T) {
	tr, ds, y := newTrainer(8)
	g := New(tr, Policy{})
	inj := fault.NewInjector(fault.Config{Seed: 3, Schedule: []fault.Window{{Kind: fault.KindLRSpike, Prob: 0.2, Factor: 1e200}}})
	g.Fit(ds.X, y, FitConfig{
		Epochs: 4, BatchSize: 16,
		LRSpike: func(step int) float64 { return inj.LRSpikeFactor(0, step) },
	})
	if !tensor.AllFinite(tr.Net.ParamVector()) {
		t.Fatal("guarded training left non-finite parameters")
	}
	rollbacks := 0
	for _, in := range g.Ledger().Incidents {
		if in.Kind != KindNonFiniteLoss {
			t.Fatalf("incident %v, want every incident a non-finite loss", in)
		}
		if in.Action == ActionRollback {
			rollbacks++
		}
	}
	if rollbacks == 0 {
		t.Fatalf("no rollback among %d incidents", g.Ledger().Len())
	}
}

func TestFitReplayIdenticalLedger(t *testing.T) {
	run := func() (uint64, []float64) {
		tr, ds, y := newTrainer(9)
		g := New(tr, Policy{})
		inj := fault.NewInjector(fault.NumericalRate(17, 0.08))
		g.Fit(ds.X, y, FitConfig{
			Epochs: 3, BatchSize: 16,
			Inject: func(step int, bx, by *tensor.Tensor) {
				if inj.CorruptsBatch(0, step) {
					inj.CorruptBatchValues(bx.Data, 0, step)
				}
				if inj.LabelNoise(0, step) {
					inj.ShuffleLabels(by.Data, by.Dim(0), by.Dim(1), 0, step)
				}
			},
			LRSpike: func(step int) float64 { return inj.LRSpikeFactor(0, step) },
		})
		return g.Ledger().Fingerprint(), tr.Net.ParamVector()
	}
	fp1, p1 := run()
	fp2, p2 := run()
	if fp1 != fp2 {
		t.Fatalf("ledger fingerprints differ: %x vs %x", fp1, fp2)
	}
	for i := range p1 {
		if math.Float64bits(p1[i]) != math.Float64bits(p2[i]) {
			t.Fatalf("replayed parameters differ at %d", i)
		}
	}
}

func TestObserveModeNeverIntervenes(t *testing.T) {
	tr, ds, y := newTrainer(10)
	g := New(tr, Policy{Mode: Observe})
	bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3})
	bx.Data[0] = math.NaN()
	_, applied := g.Step(bx, by)
	if !applied {
		t.Fatal("observe mode must apply every update")
	}
	l := g.Ledger()
	if l.Observed == 0 {
		t.Fatal("observe mode should still record incidents")
	}
	if l.Skipped+l.Clipped+l.Backoffs+l.Rollbacks != 0 {
		t.Fatal("observe mode must not remediate")
	}
}

func TestIncidentStringAndKindNames(t *testing.T) {
	kinds := []IncidentKind{KindBadBatch, KindInputDrift, KindNonFiniteLoss,
		KindNonFiniteGrad, KindNonFiniteParam, KindLossSpike, KindGradExplosion, 0}
	for _, k := range kinds[:7] {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if kinds[7].String() != "unknown" {
		t.Fatal("zero kind should be unknown")
	}
	acts := []Action{ActionObserved, ActionFlagged, ActionSkipBatch, ActionClipGrad, ActionBackoffLR, ActionRollback}
	for _, a := range acts {
		if a.String() == "unknown" {
			t.Fatalf("action %d unnamed", a)
		}
	}
	in := Incident{Step: 3, Kind: KindLossSpike, Action: ActionBackoffLR, Value: 9.5}
	if in.String() == "" {
		t.Fatal("empty incident string")
	}
}

// A guarded step that takes no snapshot allocates nothing. The steps run
// once the norm window is ready, so each also runs the explosion check and
// its median, and all of them fall between two periodic snapshots:
// AllocsPerRun makes one call more than its run count.
func TestGuardedStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates")
	}
	tr, ds, y := newTrainer(5)
	g := New(tr, Policy{})
	bx, by := nn.GatherBatchInto(nil, nil, ds.X, y, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	step := func() {
		if _, applied := g.Step(bx, by); !applied {
			t.Fatalf("healthy step %d skipped", g.step-1)
		}
	}
	for step(); !g.normWin.ready() || g.sinceSnap != 0; {
		step()
	}
	if got := testing.AllocsPerRun(snapshotEvery-2, step); got != 0 {
		t.Errorf("a guarded step makes %v allocations, want 0", got)
	}
	if g.sinceSnap != snapshotEvery-1 || len(g.Ledger().Incidents) != 0 {
		t.Fatalf("the measured steps took a snapshot or an incident: %d steps since the last snapshot, %d incidents",
			g.sinceSnap, len(g.Ledger().Incidents))
	}
}
