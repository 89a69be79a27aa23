package serve

import (
	"fmt"
	"math/rand"

	"dlsys/internal/data"
	"dlsys/internal/distill"
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
	Epochs   int // default 30

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
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
}

// The ladder's fixed recipe: the Gaussian-mixture task, the full model's
// two hidden layers, the training batch and learning rate, the distilled
// student's width and the pruned tier's sparsity.
const (
	ladderFeatures = 8
	ladderClasses  = 4
	ladderSep      = 2.5
	fullWidth      = 48
	ladderBatch    = 32
	ladderLR       = 0.01
	distillWidth   = 8
	pruneSparsity  = 0.7
)

// BuildVariants trains the full model and derives the degradation ladder:
// int8-quantized, distilled, and pruned variants, each with real measured
// accuracy and honest cost figures. It also returns the eval split so the
// server can score the accuracy of the responses it actually serves.
func BuildVariants(cfg VariantsConfig) ([]Variant, *data.Dataset, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := data.GaussianMixture(rng, cfg.Examples, ladderFeatures, ladderClasses, ladderSep)
	train, eval := ds.Split(rng, 0.8)
	y := nn.OneHot(train.Labels, ladderClasses)

	mlpCfg := nn.MLPConfig{In: ladderFeatures, Hidden: []int{fullWidth, fullWidth}, Out: ladderClasses}
	full := nn.NewMLP(rng, mlpCfg)
	tr := nn.NewTrainer(full, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(ladderLR), rng)
	tr.Fit(train.X, y, nn.TrainConfig{Epochs: cfg.Epochs, BatchSize: ladderBatch})

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
	sCfg := nn.MLPConfig{In: ladderFeatures, Hidden: []int{distillWidth}, Out: ladderClasses}
	student := nn.NewMLP(rng, sCfg)
	distill.Distill(rng, full, student, train.X, y, distill.Config{
		Alpha: 0.3, T: 3, Epochs: cfg.Epochs, BatchSize: ladderBatch, LR: ladderLR,
	})
	variants = append(variants, Variant{
		Tier: TierDistilled, Name: fmt.Sprintf("distilled-w%d", distillWidth), Model: student,
		Accuracy: student.Accuracy(eval.X, eval.Labels),
		FLOPs:    student.FLOPs(1), Bytes: student.ParamBytes(32),
	})

	// Pruned: sparsify a clone of the full model, fine-tune briefly, and
	// deploy in a sparse format. An idealised sparse kernel skips the
	// zeroed multiplies, so per-request FLOPs shrink with sparsity. The
	// float64 variable makes 1 - sparsity a float64 subtraction, not an
	// exact constant one.
	sparsity := float64(pruneSparsity)
	pruned := nn.CloneMLP(full, mlpCfg)
	ptr := nn.NewTrainer(pruned, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(ladderLR), rng)
	if err := prune.GlobalPrune(rng, pruned, sparsity, prune.Magnitude); err != nil {
		return nil, nil, err
	}
	ptr.Fit(train.X, y, nn.TrainConfig{Epochs: cfg.Epochs / 5, BatchSize: ladderBatch})
	sparseFLOPs := int64(float64(pruned.FLOPs(1)) * (1 - sparsity))
	if sparseFLOPs < 1 {
		sparseFLOPs = 1
	}
	variants = append(variants, Variant{
		Tier: TierPruned, Name: fmt.Sprintf("pruned-%.0f%%", sparsity*100), Model: pruned,
		Accuracy: pruned.Accuracy(eval.X, eval.Labels),
		FLOPs:    sparseFLOPs, Bytes: prune.NonzeroParamBytes(pruned),
	})
	return variants, eval, nil
}
