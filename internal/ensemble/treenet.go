package ensemble

import (
	"math/rand"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// TreeNet is a weight-shared ensemble: a common trunk feeding K independent
// branch heads. Training runs every batch through the trunk once, through
// each branch separately, and sums the branch gradients at the trunk — the
// structure TreeNets exploits to amortise training and deployment cost
// across members.
type TreeNet struct {
	Trunk    []nn.Layer
	Branches [][]nn.Layer
}

// NewTreeNet builds a TreeNet over an MLP architecture: the trunk is the
// first hidden block, and each branch replicates the remaining hidden
// layers plus its own output head.
func NewTreeNet(rng *rand.Rand, k int, arch nn.MLPConfig) *TreeNet {
	if len(arch.Hidden) == 0 {
		panic("ensemble: TreeNet needs at least one hidden layer")
	}
	t := &TreeNet{}
	t.Trunk = []nn.Layer{
		nn.NewDense(rng, "trunk.fc", arch.In, arch.Hidden[0]),
		nn.NewReLU("trunk.relu"),
	}
	for b := 0; b < k; b++ {
		var branch []nn.Layer
		prev := arch.Hidden[0]
		for i, h := range arch.Hidden[1:] {
			branch = append(branch,
				nn.NewDense(rng, branchName(b, i, "fc"), prev, h),
				nn.NewReLU(branchName(b, i, "relu")))
			prev = h
		}
		branch = append(branch, nn.NewDense(rng, branchName(b, len(arch.Hidden)-1, "out"), prev, arch.Out))
		t.Branches = append(t.Branches, branch)
	}
	return t
}

func branchName(b, i int, kind string) string {
	return "branch" + string(rune('0'+b)) + "." + kind + string(rune('0'+i))
}

// forwardTrunk runs the trunk; train toggles caching.
func (t *TreeNet) forwardTrunk(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range t.Trunk {
		x = l.Forward(x, train)
	}
	return x
}

func forwardLayers(layers []nn.Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range layers {
		x = l.Forward(x, train)
	}
	return x
}

func backwardLayers(layers []nn.Layer, dout *tensor.Tensor) *tensor.Tensor {
	for i := len(layers) - 1; i >= 0; i-- {
		dout = layers[i].Backward(dout)
	}
	return dout
}

// PredictProbs implements Committee.
func (t *TreeNet) PredictProbs(x *tensor.Tensor) *tensor.Tensor {
	h := t.forwardTrunk(x, false)
	probs := nn.Softmax(forwardLayers(t.Branches[0], h, false))
	for _, br := range t.Branches[1:] {
		probs.AddInPlace(nn.Softmax(forwardLayers(br, h, false)))
	}
	probs.ScaleInPlace(1 / float64(len(t.Branches)))
	return probs
}

// Params returns all trainable parameters (trunk + all branches).
func (t *TreeNet) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range t.Trunk {
		ps = append(ps, l.Params()...)
	}
	for _, br := range t.Branches {
		for _, l := range br {
			ps = append(ps, l.Params()...)
		}
	}
	return ps
}

// NumParams implements Committee.
func (t *TreeNet) NumParams() int {
	total := 0
	for _, p := range t.Params() {
		total += p.Value.Size()
	}
	return total
}

// InferenceFLOPs implements Committee: the trunk runs once, branches K times.
func (t *TreeNet) InferenceFLOPs(batch int) int64 {
	var total int64
	for _, l := range t.Trunk {
		if fc, ok := l.(nn.FLOPsCounter); ok {
			total += fc.FLOPs(batch)
		}
	}
	for _, br := range t.Branches {
		for _, l := range br {
			if fc, ok := l.(nn.FLOPsCounter); ok {
				total += fc.FLOPs(batch)
			}
		}
	}
	return total
}

// trainFLOPsPerExample mirrors InferenceFLOPs×3 for cost accounting.
func (t *TreeNet) trainFLOPsPerExample() int64 { return 3 * t.InferenceFLOPs(1) }

// TrainTreeNet trains the shared-trunk ensemble jointly: each batch flows
// through the trunk once and every branch computes its own cross-entropy
// against the labels; trunk gradients are the sum of branch gradients.
func TrainTreeNet(seed int64, x, y *tensor.Tensor, cfg TrainConfig) Result {
	rng := rand.New(rand.NewSource(seed))
	t := NewTreeNet(rng, cfg.K, cfg.Arch)
	opt := nn.NewAdam(cfg.LR)
	batches := nn.NewBatches(rng, x.Dim(0), cfg.BatchSize)
	losses := make([]*nn.SoftmaxCrossEntropy, cfg.K)
	for i := range losses {
		losses[i] = nn.NewSoftmaxCrossEntropy()
	}
	// The K branches share one skeleton, so their forward GEMMs batch into
	// rank-3 BatMul calls (see treenet_batched.go) — bit-identical to the
	// sequential per-branch walk, which remains as the reference path.
	batched := !cfg.SequentialBranches && branchesBatchable(t)
	var res Result
	var bx, by *tensor.Tensor // batch buffers
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		params := t.Params()
		batches.Epoch(func(idx []int) {
			bx, by = nn.GatherBatchInto(bx, by, x, y, idx)
			nn.ZeroGrads(params)
			if batched {
				t.trainStepBatched(bx, by, losses)
			} else {
				h := t.forwardTrunk(bx, true)
				var dTrunk *tensor.Tensor
				for bi, br := range t.Branches {
					logits := forwardLayers(br, h, true)
					losses[bi].Forward(logits, by)
					dh := backwardLayers(br, losses[bi].Backward())
					if dTrunk == nil {
						dTrunk = dh
					} else {
						dTrunk.AddInPlace(dh)
					}
				}
				backwardLayers(t.Trunk, dTrunk)
			}
			opt.Step(params)
			res.Steps++
			res.FLOPs += t.trainFLOPsPerExample() * int64(len(idx))
		})
	}
	res.Committee = t
	return res
}
