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
