package nn

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/tensor"
)

// Dense.Forward adds its bias inside the product's kernel
// (tensor.MatMulAddRowInto). In every mode it must give the bits of the
// unfused pair it replaced, tensor.MatMul then tensor.AddRowVectorInPlace:
// at the bloom's and the day job's shapes, which take the small tier, at
// one row, which takes the reference loop, and at a packed shape; with a
// pruning mask; and with a NaN and an infinite bias against an infinite
// input.
func TestDenseForwardMatchesUnfusedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name              string
		batch, in, out    int
		masked, nonFinite bool
	}{
		{"bloom hidden", 64, 3, 8, false, false},
		{"bloom output", 64, 8, 2, false, false},
		{"day hidden", 16, 6, 24, false, false},
		{"day output", 16, 24, 3, false, false},
		{"one row", 1, 3, 8, false, false},
		{"packed", 64, 64, 64, false, false},
		{"masked", 64, 8, 6, true, false},
		{"non-finite", 16, 6, 7, false, true},
	} {
		d := NewDense(rng, "fc", c.in, c.out)
		for i := range d.B.Value.Data {
			d.B.Value.Data[i] = rng.NormFloat64()
		}
		if c.masked {
			mask := tensor.New(c.in, c.out)
			for i := range mask.Data {
				mask.Data[i] = float64(rng.Intn(2))
			}
			if err := d.SetMask(mask); err != nil {
				t.Fatal(err)
			}
		}
		x := tensor.RandNormal(rng, 0, 1, c.batch, c.in)
		if c.nonFinite {
			// Row 0 has a +Inf input, so its products are ±Inf; a −Inf bias
			// meets them, and a NaN bias meets finite ones.
			x.Data[0] = math.Inf(1)
			d.B.Value.Data[0], d.B.Value.Data[c.out-1] = math.Inf(-1), math.NaN()
		}
		want := tensor.MatMul(x, d.W.Value)
		tensor.AddRowVectorInPlace(want, d.B.Value)
		for _, train := range []bool{true, false, true} {
			got := d.Forward(x, train)
			for i, w := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
					t.Fatalf("%s, train %v: element %d is %v (%#x), the unfused pair gives %v (%#x)",
						c.name, train, i, got.Data[i], math.Float64bits(got.Data[i]), w, math.Float64bits(w))
				}
			}
		}
	}
}

// Network's walks fuse each Dense→ReLU→Dense run: the first Dense applies
// ReLU's select in its product's store, and the second gates its input
// gradient by its cached input, the ReLU's output. Against the per-layer
// walk, every layer's own Forward and Backward in turn on an identical
// net, they must give the same bits: the train and eval outputs, every
// parameter gradient, Backward's input gradient, and the gradients of a
// training step's backward pass, at one and two hidden layers and with
// pruning masks. A per-layer walk of Backward after a fused Forward, which
// runs each ReLU's own Backward on the output the fused walk recorded,
// must give them too. Rows of zeros make a layer's pre-activations exactly
// +0, where the select keeps +0 and the gate must stop the gradient; a
// NaN and an infinite input send the products to the reference loop.
func TestFusedMLPMatchesPerLayerWalk(t *testing.T) {
	walkForward := func(net *Network, x *tensor.Tensor, train bool) *tensor.Tensor {
		for _, l := range net.Layers {
			x = l.Forward(x, train)
		}
		return x
	}
	walkBackward := func(net *Network, dout *tensor.Tensor) *tensor.Tensor {
		for i := len(net.Layers) - 1; i >= 0; i-- {
			dout = net.Layers[i].Backward(dout)
		}
		return dout
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for i, w := range want {
			if math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("%s: element %d is %v (%#x), the per-layer walk gives %v (%#x)",
					what, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
			}
		}
	}
	sameGrads := func(what string, got, want *Network) {
		t.Helper()
		wp := want.Params()
		for i, p := range got.Params() {
			sameBits(what+" "+p.Name+" gradient", p.Grad.Data, wp[i].Grad.Data)
		}
	}
	for _, c := range []struct {
		name   string
		cfg    MLPConfig
		batch  int
		masked bool
	}{
		{"bloom", MLPConfig{In: 3, Hidden: []int{8}, Out: 2}, 64, false},
		{"two hidden", MLPConfig{In: 6, Hidden: []int{24, 5}, Out: 3}, 16, false},
		{"masked", MLPConfig{In: 5, Hidden: []int{7, 6}, Out: 2}, 9, true},
	} {
		fused := NewMLP(rand.New(rand.NewSource(11)), c.cfg)
		walk := NewMLP(rand.New(rand.NewSource(11)), c.cfg)
		rng := rand.New(rand.NewSource(12))
		if c.masked {
			for li, l := range fused.Layers {
				d, ok := l.(*Dense)
				if !ok {
					continue
				}
				mask := tensor.New(d.In(), d.Out())
				for i := range mask.Data {
					mask.Data[i] = float64(rng.Intn(2))
				}
				for i := range d.B.Value.Data {
					d.B.Value.Data[i] = rng.NormFloat64()
				}
				copy(walk.Layers[li].(*Dense).B.Value.Data, d.B.Value.Data)
				if err := d.SetMask(mask); err != nil {
					t.Fatal(err)
				}
				if err := walk.Layers[li].(*Dense).SetMask(mask.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		x := tensor.RandNormal(rng, 0, 1, c.batch, c.cfg.In)
		for j := 0; j < c.cfg.In; j++ {
			x.Data[1*c.cfg.In+j], x.Data[2*c.cfg.In+j] = 0, 0
		}
		x.Data[3*c.cfg.In], x.Data[4*c.cfg.In] = math.NaN(), math.Inf(1)
		dout := tensor.RandNormal(rng, 0, 1, c.batch, c.cfg.Out)

		ZeroGrads(fused.Params())
		ZeroGrads(walk.Params())
		sameBits(c.name+" train output", fused.Forward(x, true).Data, walkForward(walk, x, true).Data)
		want := walkBackward(walk, dout).Clone()
		sameBits(c.name+" input gradient", fused.Backward(dout).Data, want.Data)
		sameGrads(c.name+" Backward", fused, walk)

		ZeroGrads(fused.Params())
		fused.Forward(x, true)
		fused.backwardParams(dout)
		sameGrads(c.name+" training step", fused, walk)

		ZeroGrads(fused.Params())
		fused.Forward(x, true)
		sameBits(c.name+" per-layer Backward after a fused Forward", walkBackward(fused, dout).Data, want.Data)
		sameGrads(c.name+" per-layer Backward after a fused Forward", fused, walk)

		sameBits(c.name+" eval output", fused.Forward(x, false).Data, walkForward(walk, x, false).Data)
	}
}
