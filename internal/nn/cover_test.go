package nn

import (
	"math/rand"
	"testing"

	"dlsys/internal/tensor"
)

// Exercise the small Layer interface surface (Name, and OutputShape, which
// checkpoint.FromNetwork plans with).
func TestLayerInterfaceSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	layers := []Layer{
		NewDense(rng, "d", 4, 8),
		NewDenseXavier(rng, "dx", 4, 8),
		NewReLU("r"),
		NewSigmoid("s"),
		NewTanh("t"),
		NewConv2D(rng, "c", g, 3),
		NewFlatten("f"),
	}
	for _, l := range layers {
		if l.Name() == "" {
			t.Fatalf("%T has empty name", l)
		}
	}
	// OutputShape chains for the MLP-ish layers.
	shapes := map[string][]int{
		"d": {8},
		"r": {4},
		"f": {12},
		"s": {4},
		"t": {4},
	}
	for _, l := range layers {
		os, ok := l.(OutputShaper)
		if !ok {
			continue
		}
		if want, ok := shapes[l.Name()]; ok {
			in := []int{4}
			if l.Name() == "f" {
				in = []int{3, 2, 2}
			}
			got := os.OutputShape(in)
			if len(got) != len(want) || got[0] != want[0] {
				t.Fatalf("%s OutputShape = %v, want %v", l.Name(), got, want)
			}
		}
	}
	// Conv spatial shape.
	conv := layers[5].(*Conv2D)
	if got := conv.OutputShape([]int{2, 6, 6}); got[0] != 3 || got[1] != 6 || got[2] != 6 {
		t.Fatalf("conv OutputShape %v", got)
	}
}

func TestDenseMaskAccessorAndBadMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(rng, "d", 3, 3)
	if d.Mask() != nil {
		t.Fatal("fresh layer should have no mask")
	}
	m := tensor.Full(1, 3, 3)
	if err := d.SetMask(m); err != nil {
		t.Fatalf("SetMask: %v", err)
	}
	if d.Mask() != m {
		t.Fatal("mask accessor broken")
	}
	if err := d.SetMask(nil); err != nil { // clearing is allowed
		t.Fatalf("SetMask(nil): %v", err)
	}
	if err := d.SetMask(tensor.Full(1, 2, 2)); err == nil {
		t.Fatal("expected error on bad mask shape")
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for name, fn := range map[string]func(){
		"dense": func() { NewDense(rng, "d", 2, 2).Backward(tensor.New(1, 2)) },
		"conv": func() {
			g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1, Pad: 0}
			NewConv2D(rng, "c", g, 1).Backward(tensor.New(1, 1, 2, 2))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSetParamVectorLengthMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP(rng, MLPConfig{In: 2, Hidden: []int{2}, Out: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.SetParamVector(make([]float64, 3))
}

func TestMLPConfigValidate(t *testing.T) {
	bad := []MLPConfig{
		{In: 0, Out: 2},
		{In: 2, Out: 0},
		{In: 2, Hidden: []int{4, 0}, Out: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should fail validation: %+v", i, cfg)
		}
		if _, err := NewMLPChecked(rand.New(rand.NewSource(1)), cfg); err == nil {
			t.Fatalf("NewMLPChecked should reject config %d", i)
		}
	}
	good := MLPConfig{In: 3, Hidden: []int{8}, Out: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	net, err := NewMLPChecked(rand.New(rand.NewSource(1)), good)
	if err != nil || net == nil {
		t.Fatalf("NewMLPChecked: %v", err)
	}
}

func TestNewMLPPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), MLPConfig{In: 0, Out: 2})
}
