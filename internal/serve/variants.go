package serve

import (
	"fmt"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/distill"
	"dlsys/internal/invalid"
	"dlsys/internal/nn"
	"dlsys/internal/prune"
	"dlsys/internal/quant"
	"dlsys/internal/tensor"
)

// Tier orders model variants from most to least faithful. Lower tiers are
// preferred; the server degrades to higher tiers when the preferred ones
// are saturated or broken.
type Tier int

// Degradation ladder, best first.
const (
	// TierFull is the uncompressed float model.
	TierFull Tier = iota
	// TierQuantized is the int8 integer-inference variant.
	TierQuantized
	// TierDistilled is a small student distilled from the full model.
	TierDistilled
	// TierPruned is the sparsified variant.
	TierPruned

	numTiers
)

// String names the tier for ledgers and tables.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierQuantized:
		return "quantized"
	case TierDistilled:
		return "distilled"
	case TierPruned:
		return "pruned"
	}
	return "unknown"
}

// Predictor is the inference interface a replica hosts: argmax classes
// for a batch of rows. Both *nn.Network and *quant.IntMLP satisfy it.
type Predictor interface {
	Predict(x *tensor.Tensor) []int
}

// Variant is one deployable model: the predictor plus the cost figures
// the serving simulator charges per request (weights streamed, FLOPs) and
// its measured accuracy on the eval split.
type Variant struct {
	Tier     Tier
	Name     string
	Model    Predictor
	Accuracy float64 // on the held-out eval split
	FLOPs    int64   // per single-row inference
	Bytes    int64   // weight bytes streamed per request
}

// VariantsConfig controls BuildVariants' training run.
type VariantsConfig struct {
	Seed     int64
	Examples int // dataset size (default 2000)
	Features int // default 8
	Classes  int // default 4
	Sep      float64
	Hidden   []int // full-model hidden widths (default {48, 48})

	Epochs    int // default 30
	BatchSize int // default 32
	LR        float64

	DistillWidth  int     // student hidden width (default 8)
	PruneSparsity float64 // default 0.7

	// Float32 swaps the full tier's served model to the float32 inference
	// path (tensor engine f32 tier). The full tier has always been PRICED
	// as fp32 streaming (ParamBytes(32)); this makes the executed path
	// match the priced one at half the in-memory footprint. Off by
	// default — the float64 ladder is the historical, bit-reproducible
	// configuration.
	Float32 bool
}

func (c *VariantsConfig) defaults() {
	if c.Examples <= 0 {
		c.Examples = 2000
	}
	if c.Features <= 0 {
		c.Features = 8
	}
	if c.Classes <= 0 {
		c.Classes = 4
	}
	if c.Sep == 0 {
		c.Sep = 2.5
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{48, 48}
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.DistillWidth <= 0 {
		c.DistillWidth = 8
	}
	if c.PruneSparsity == 0 {
		c.PruneSparsity = 0.7
	}
}

// BuildVariants trains the full model and derives the degradation ladder:
// int8-quantized, distilled, and pruned variants, each with real measured
// accuracy and honest cost figures. It also returns the eval split so the
// server can score the accuracy of the responses it actually serves. A
// NaN or ±Inf Sep, LR or PruneSparsity, or a PruneSparsity outside [0, 1),
// is rejected with a typed *invalid.Error.
func BuildVariants(cfg VariantsConfig) ([]Variant, *data.Dataset, error) {
	if err := invalid.Finite("serve", invalid.F("Sep", cfg.Sep), invalid.F("LR", cfg.LR),
		invalid.F("PruneSparsity", cfg.PruneSparsity)); err != nil {
		return nil, nil, err
	}
	cfg.defaults()
	if !(cfg.PruneSparsity >= 0 && cfg.PruneSparsity < 1) { // false for NaN too
		return nil, nil, invalid.New("serve", "PruneSparsity", "%g out of [0, 1)", cfg.PruneSparsity)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := data.GaussianMixture(rng, cfg.Examples, cfg.Features, cfg.Classes, cfg.Sep)
	train, eval := ds.Split(rng, 0.8)
	y := nn.OneHot(train.Labels, cfg.Classes)

	mlpCfg := nn.MLPConfig{In: cfg.Features, Hidden: cfg.Hidden, Out: cfg.Classes}
	full := nn.NewMLP(rng, mlpCfg)
	tr := nn.NewTrainer(full, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(cfg.LR), rng)
	tr.Fit(train.X, y, nn.TrainConfig{Epochs: cfg.Epochs, BatchSize: cfg.BatchSize})

	variants := []Variant{{
		Tier: TierFull, Name: "full-fp32", Model: full,
		Accuracy: full.Accuracy(eval.X, eval.Labels),
		FLOPs:    full.FLOPs(1), Bytes: full.ParamBytes(32),
	}}
	if cfg.Float32 {
		f32 := quant.CompileF32MLP(full)
		variants[0] = Variant{
			Tier: TierFull, Name: "full-f32", Model: f32,
			Accuracy: f32.Accuracy(eval.X, eval.Labels),
			FLOPs:    full.FLOPs(1), Bytes: f32.Bytes(),
		}
	}

	// Quantized: the integer-only inference path — same architecture,
	// int8 weights, a quarter of the streamed bytes.
	im := quant.CompileIntMLP(full)
	variants = append(variants, Variant{
		Tier: TierQuantized, Name: "int8", Model: im,
		Accuracy: im.Accuracy(eval.X, eval.Labels),
		FLOPs:    full.FLOPs(1), Bytes: im.Bytes(),
	})

	// Distilled: a narrow student taught by the full model.
	sCfg := nn.MLPConfig{In: cfg.Features, Hidden: []int{cfg.DistillWidth}, Out: cfg.Classes}
	student := nn.NewMLP(rng, sCfg)
	distill.Distill(rng, full, student, train.X, y, distill.Config{
		Alpha: 0.3, T: 3, Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LR: cfg.LR,
	})
	variants = append(variants, Variant{
		Tier: TierDistilled, Name: fmt.Sprintf("distilled-w%d", cfg.DistillWidth), Model: student,
		Accuracy: student.Accuracy(eval.X, eval.Labels),
		FLOPs:    student.FLOPs(1), Bytes: student.ParamBytes(32),
	})

	// Pruned: sparsify a clone of the full model, fine-tune briefly, and
	// deploy in a sparse format. An idealised sparse kernel skips the
	// zeroed multiplies, so per-request FLOPs shrink with sparsity.
	pruned := nn.CloneMLP(full, rand.New(rand.NewSource(cfg.Seed+1)), mlpCfg)
	ptr := nn.NewTrainer(pruned, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(cfg.LR), rng)
	if err := prune.GlobalPrune(rng, pruned, cfg.PruneSparsity, prune.Magnitude); err != nil {
		return nil, nil, err
	}
	ptr.Fit(train.X, y, nn.TrainConfig{Epochs: cfg.Epochs / 5, BatchSize: cfg.BatchSize})
	sparseFLOPs := int64(float64(pruned.FLOPs(1)) * (1 - cfg.PruneSparsity))
	if sparseFLOPs < 1 {
		sparseFLOPs = 1
	}
	variants = append(variants, Variant{
		Tier: TierPruned, Name: fmt.Sprintf("pruned-%.0f%%", cfg.PruneSparsity*100), Model: pruned,
		Accuracy: pruned.Accuracy(eval.X, eval.Labels),
		FLOPs:    sparseFLOPs, Bytes: prune.NonzeroParamBytes(pruned),
	})
	return variants, eval, nil
}
