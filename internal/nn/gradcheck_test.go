package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/tensor"
)

// numericalGrad estimates d(loss)/d(vals[i]) by central differences, where
// loss() re-evaluates the full forward pass after vals has been perturbed.
func numericalGrad(vals []float64, loss func() float64) []float64 {
	const h = 1e-6
	grad := make([]float64, len(vals))
	for i := range vals {
		orig := vals[i]
		vals[i] = orig + h
		lp := loss()
		vals[i] = orig - h
		lm := loss()
		vals[i] = orig
		grad[i] = (lp - lm) / (2 * h)
	}
	return grad
}

func maxRelErr(analytic, numeric []float64) float64 {
	var worst float64
	for i := range analytic {
		denom := math.Max(math.Abs(analytic[i])+math.Abs(numeric[i]), 1e-8)
		if e := math.Abs(analytic[i]-numeric[i]) / denom; e > worst {
			worst = e
		}
	}
	return worst
}

// checkLayerGradients verifies, for an arbitrary layer, that the analytic
// input gradient and every parameter gradient match central differences
// under a quadratic loss L = ½Σ out².
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	lossFn := func() float64 {
		out := layer.Forward(x, true)
		var s float64
		for _, v := range out.Data {
			s += v * v / 2
		}
		return s
	}
	// Analytic pass.
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	out := layer.Forward(x, true)
	dx := layer.Backward(out.Clone()) // dL/dout = out for the quadratic loss

	numX := numericalGrad(x.Data, lossFn)
	if e := maxRelErr(dx.Data, numX); e > tol {
		t.Fatalf("%s: input gradient rel err %g > %g", layer.Name(), e, tol)
	}
	for _, p := range layer.Params() {
		// Forward with train=true mutates caches; recompute analytic grad
		// freshly per parameter to keep caches consistent.
		for _, q := range layer.Params() {
			q.ZeroGrad()
		}
		o := layer.Forward(x, true)
		layer.Backward(o.Clone())
		num := numericalGrad(p.Value.Data, lossFn)
		if e := maxRelErr(p.Grad.Data, num); e > tol {
			t.Fatalf("%s: param %s gradient rel err %g > %g", layer.Name(), p.Name, e, tol)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(rng, "d", 4, 3)
	x := tensor.RandNormal(rng, 0, 1, 5, 4)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestDenseMaskedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewDense(rng, "d", 4, 3)
	mask := tensor.New(4, 3)
	for i := range mask.Data {
		if rng.Float64() < 0.5 {
			mask.Data[i] = 1
		}
	}
	if err := layer.SetMask(mask); err != nil {
		t.Fatalf("SetMask: %v", err)
	}
	x := tensor.RandNormal(rng, 0, 1, 5, 4)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewReLU("r")
	// Keep inputs away from the kink at 0.
	x := tensor.RandNormal(rng, 0, 1, 6, 5)
	for i, v := range x.Data {
		if math.Abs(v) < 0.05 {
			x.Data[i] = 0.1
		}
	}
	checkLayerGradients(t, layer, x, 1e-5)

	// The masked select must give the bits of the branchy definition,
	// v if v > 0 else +0 forward and dout if v > 0 else +0 backward, in
	// both modes and on every special value: NaN of either sign, ±Inf, ±0
	// and subnormals, as input and as incoming gradient.
	specials := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030, 1.5, -2.5}
	n := len(specials)
	in := tensor.New(n, n)
	dout := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			in.Data[i*n+j], dout.Data[i*n+j] = specials[i], specials[j]
		}
	}
	sameBits := func(what string, got []float64, want func(i int) float64) {
		for i, g := range got {
			if w := want(i); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s element %d (input %v, dout %v): got %v (%#x), want %v (%#x)",
					what, i, in.Data[i], dout.Data[i], g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	branchy := func(v, pass float64) float64 {
		if v > 0 {
			return pass
		}
		return 0
	}
	for _, train := range []bool{false, true} {
		got := layer.Forward(in, train)
		sameBits(fmt.Sprintf("Forward(train=%v)", train), got.Data, func(i int) float64 {
			return branchy(in.Data[i], in.Data[i])
		})
	}
	sameBits("Backward", layer.Backward(dout).Data, func(i int) float64 {
		return branchy(in.Data[i], dout.Data[i])
	})
}

func TestSigmoidTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(rng, 0, 1, 4, 6)
	checkLayerGradients(t, NewSigmoid("s"), x.Clone(), 1e-5)
	checkLayerGradients(t, NewTanh("t"), x.Clone(), 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	layer := NewConv2D(rng, "c", g, 3)
	x := tensor.RandNormal(rng, 0, 1, 2, 2, 5, 5)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2, Pad: 0}
	layer := NewConv2D(rng, "c", g, 2)
	x := tensor.RandNormal(rng, 0, 1, 2, 1, 6, 6)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.RandNormal(rng, 0, 1, 4, 3)
	target := OneHot([]int{0, 2, 1, 2}, 3)
	loss := NewSoftmaxCrossEntropy()
	lossFn := func() float64 { return loss.Forward(logits, target) }
	lossFn()
	analytic := loss.Backward()
	num := numericalGrad(logits.Data, lossFn)
	if e := maxRelErr(analytic.Data, num); e > 1e-5 {
		t.Fatalf("softmax-CE gradient rel err %g", e)
	}
}

func TestMSEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pred := tensor.RandNormal(rng, 0, 1, 4, 2)
	target := tensor.RandNormal(rng, 0, 1, 4, 2)
	loss := NewMSE()
	lossFn := func() float64 { return loss.Forward(pred, target) }
	lossFn()
	analytic := loss.Backward()
	num := numericalGrad(pred.Data, lossFn)
	if e := maxRelErr(analytic.Data, num); e > 1e-5 {
		t.Fatalf("MSE gradient rel err %g", e)
	}
}

func TestDistillLossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.RandNormal(rng, 0, 1, 4, 3)
	hard := OneHot([]int{0, 1, 2, 0}, 3)
	teacher := Softmax(tensor.RandNormal(rng, 0, 1, 4, 3))
	loss := NewDistillLoss(0.3, 4)
	lossFn := func() float64 { return loss.ForwardDistill(logits, hard, teacher) }
	lossFn()
	analytic := loss.Backward()
	num := numericalGrad(logits.Data, lossFn)
	if e := maxRelErr(analytic.Data, num); e > 1e-5 {
		t.Fatalf("distill gradient rel err %g", e)
	}
}

// End-to-end gradient check: a two-layer MLP through the fused loss.
func TestNetworkEndToEndGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewMLP(rng, MLPConfig{In: 3, Hidden: []int{5}, Out: 2})
	x := tensor.RandNormal(rng, 0, 1, 4, 3)
	y := OneHot([]int{0, 1, 1, 0}, 2)
	loss := NewSoftmaxCrossEntropy()
	lossFn := func() float64 { return loss.Forward(net.Forward(x, true), y) }

	ZeroGrads(net.Params())
	lossFn()
	net.Backward(loss.Backward())
	for _, p := range net.Params() {
		analytic := append([]float64(nil), p.Grad.Data...)
		num := numericalGrad(p.Value.Data, lossFn)
		if e := maxRelErr(analytic, num); e > 1e-4 {
			t.Fatalf("network param %s gradient rel err %g", p.Name, e)
		}
	}
}
