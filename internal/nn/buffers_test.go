package nn

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/tensor"
)

// Train-mode buffers must not change a single bit of training. Each case
// trains two identical networks on the same batches. The reference runs
// through wrappers that Clone every layer output, layer gradient and loss
// gradient, which is the allocate-per-op behaviour the buffers replaced.
// The buffered network runs through wrappers that fill every tensor a
// layer or loss lent out with NaN once its step is over, so a buffer that
// is not fully rewritten on reuse, or a result read after its owner reused
// it, poisons the parameters.

type cloneLayer struct{ Layer }

func (c cloneLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.Layer.Forward(x, train).Clone()
}

func (c cloneLayer) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return c.Layer.Backward(dout).Clone()
}

func (c cloneLayer) PostStep() { postStep(c.Layer) }

type cloneLoss struct{ Loss }

func (c cloneLoss) Backward() *tensor.Tensor { return c.Loss.Backward().Clone() }

// lender records the tensors a buffered network lends out during one step
// and overwrites them with NaN when the next step starts.
type lender struct{ lent []*tensor.Tensor }

func (l *lender) lend(t *tensor.Tensor) *tensor.Tensor {
	l.lent = append(l.lent, t)
	return t
}

func (l *lender) expire() {
	for _, t := range l.lent {
		t.Fill(math.NaN())
	}
	l.lent = l.lent[:0]
}

type poisonLayer struct {
	Layer
	l     *lender
	first bool // the network's first layer: its Forward starts a step
}

func (p poisonLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if p.first {
		p.l.expire()
	}
	return p.l.lend(p.Layer.Forward(x, train))
}

func (p poisonLayer) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return p.l.lend(p.Layer.Backward(dout))
}

func (p poisonLayer) PostStep() { postStep(p.Layer) }

type poisonLoss struct {
	Loss
	l *lender
}

func (p poisonLoss) Backward() *tensor.Tensor { return p.l.lend(p.Loss.Backward()) }

func postStep(l Layer) {
	if ps, ok := l.(PostStepper); ok {
		ps.PostStep()
	}
}

func TestTrainBuffersBitIdenticalToFreshAllocation(t *testing.T) {
	const n, in, hidden, out = 50, 5, 7, 3
	cases := []struct {
		name   string
		act    func(name string) Layer
		mse    bool
		opt    func() Optimizer
		masked bool
	}{
		{"relu/sce/adam/masked", func(s string) Layer { return NewReLU(s) }, false, func() Optimizer { return NewAdam(0.01) }, true},
		{"sigmoid/mse/sgd", func(s string) Layer { return NewSigmoid(s) }, true, func() Optimizer { return NewSGD(0.05) }, false},
		{"tanh/sce/sgd", func(s string) Layer { return NewTanh(s) }, false, func() Optimizer { return NewSGD(0.05) }, false},
		{"relu/mse/adam", func(s string) Layer { return NewReLU(s) }, true, func() Optimizer { return NewAdam(0.01) }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := rand.New(rand.NewSource(3))
			x := tensor.RandNormal(data, 0, 1, n, in)
			y := tensor.RandNormal(data, 0, 1, n, out)
			if !c.mse {
				labels := make([]int, n)
				for i := range labels {
					labels[i] = data.Intn(out)
				}
				y = OneHot(labels, out)
			}
			build := func() []Layer {
				rng := rand.New(rand.NewSource(11))
				fc0 := NewDenseXavier(rng, "fc0", in, hidden)
				if c.masked {
					mask := tensor.New(in, hidden)
					for i := range mask.Data {
						if rng.Float64() < 0.6 {
							mask.Data[i] = 1
						}
					}
					if err := fc0.SetMask(mask); err != nil {
						t.Fatal(err)
					}
				}
				return []Layer{fc0, c.act("act0"), NewDenseXavier(rng, "fc1", hidden, out)}
			}
			newLoss := func() Loss {
				if c.mse {
					return NewMSE()
				}
				return NewSoftmaxCrossEntropy()
			}
			fit := func(net *Network, loss Loss) {
				tr := NewTrainer(net, loss, c.opt(), rand.New(rand.NewSource(5)))
				// 50 examples in batches of 16 end each epoch on a batch of
				// 2, so every buffer is regrown twice per epoch and reused
				// in between.
				tr.Fit(x, y, TrainConfig{Epochs: 4, BatchSize: 16})
			}

			var refLayers []Layer
			for _, l := range build() {
				refLayers = append(refLayers, cloneLayer{l})
			}
			ref := NewNetwork(refLayers...)
			fit(ref, cloneLoss{newLoss()})

			var lent lender
			var bufLayers []Layer
			for i, l := range build() {
				bufLayers = append(bufLayers, poisonLayer{Layer: l, l: &lent, first: i == 0})
			}
			buf := NewNetwork(bufLayers...)
			fit(buf, poisonLoss{newLoss(), &lent})

			want, got := ref.ParamVector(), buf.ParamVector()
			initial := NewNetwork(build()...).ParamVector()
			moved := false
			for i, w := range want {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("reference parameter %d is %g", i, w)
				}
				if math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("parameter %d: buffered %g, fresh %g", i, got[i], w)
				}
				moved = moved || w != initial[i]
			}
			if !moved {
				t.Fatal("training left every parameter unchanged")
			}
		})
	}
}

// A steady-state training step allocates nothing: the network's parameter
// list is built once, and layer and loss buffers are regrown only when the
// batch shape changes.
func TestTrainStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	for _, c := range []struct {
		name                   string
		in, hidden, out, batch int
	}{
		{"bloom [3→8→2] batch 64", 3, 8, 2, 64},
		{"day [6→24→3] batch 16", 6, 24, 3, 16},
	} {
		rng := rand.New(rand.NewSource(1))
		net := NewMLP(rng, MLPConfig{In: c.in, Hidden: []int{c.hidden}, Out: c.out})
		tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng)
		x := tensor.RandNormal(rng, 0, 1, c.batch, c.in)
		labels := make([]int, c.batch)
		for i := range labels {
			labels[i] = i % c.out
		}
		y := OneHot(labels, c.out)
		tr.Step(x, y) // sizes the buffers and Adam's moments
		if got := testing.AllocsPerRun(20, func() { tr.Step(x, y) }); got != 0 {
			t.Errorf("%s: Step makes %v allocations, want 0", c.name, got)
		}
		if got := testing.AllocsPerRun(20, func() { tr.ComputeGrad(x, y) }); got != 0 {
			t.Errorf("%s: ComputeGrad makes %v allocations, want 0", c.name, got)
		}
	}
}

// A steady-state Fit step allocates nothing: Fit takes the parameter list
// once per epoch, and with n a multiple of the batch size no batch, layer
// or loss buffer regrows. Fit's per-call and per-epoch allocations cancel
// in the difference between runs of 8 and 4 batches an epoch.
func TestFitStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const epochs = 2
	for _, c := range []struct {
		name                   string
		in, hidden, out, batch int
	}{
		{"bloom [3→8→2] batch 64", 3, 8, 2, 64},
		{"day [6→24→3] batch 16", 6, 24, 3, 16},
	} {
		rng := rand.New(rand.NewSource(1))
		net := NewMLP(rng, MLPConfig{In: c.in, Hidden: []int{c.hidden}, Out: c.out})
		tr := NewTrainer(net, NewSoftmaxCrossEntropy(), NewAdam(0.01), rng)
		allocs := func(batches int) float64 {
			n := batches * c.batch
			x := tensor.RandNormal(rng, 0, 1, n, c.in)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = i % c.out
			}
			y := OneHot(labels, c.out)
			cfg := TrainConfig{Epochs: epochs, BatchSize: c.batch}
			tr.Fit(x, y, cfg) // sizes the buffers and Adam's moments
			return testing.AllocsPerRun(10, func() { tr.Fit(x, y, cfg) })
		}
		many, few := allocs(8), allocs(4)
		if perStep := (many - few) / (epochs * 4); perStep != 0 {
			t.Errorf("%s: a Fit step makes %v allocations (Fit %v at 8 batches an epoch, %v at 4), want 0", c.name, perStep, many, few)
		}
	}
}

// Inference results belong to the caller: no later forward of the layer,
// in either mode, may overwrite them.
func TestInferenceOutputsAreFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, l := range []Layer{NewDense(rng, "fc", 4, 4), NewReLU("r"), NewSigmoid("s"), NewTanh("t")} {
		eval := l.Forward(tensor.RandNormal(rng, 0, 1, 5, 4), false)
		want := eval.Clone()
		for _, train := range []bool{true, false, true} {
			l.Forward(tensor.RandNormal(rng, 0, 1, 5, 4), train)
		}
		if !tensor.Equal(eval, want, 0) {
			t.Errorf("%s: a later forward overwrote an inference result", l.Name())
		}
	}
}
