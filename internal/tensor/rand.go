package tensor

import (
	"math"
	"math/rand"
)

// RandUniform returns a tensor with elements drawn i.i.d. from
// Uniform[lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + float64((hi-lo)*rng.Float64())
	}
	return t
}

// RandNormal returns a tensor with elements drawn i.i.d. from N(mean, std²).
func RandNormal(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = mean + float64(std*rng.NormFloat64())
	}
	return t
}

// XavierInit returns a fanIn×fanOut weight matrix initialised with Glorot
// uniform scaling, appropriate for tanh/sigmoid layers.
func XavierInit(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(rng, -limit, limit, fanIn, fanOut)
}

// HeInit returns a fanIn×fanOut weight matrix initialised with He normal
// scaling, appropriate for ReLU layers.
func HeInit(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	std := math.Sqrt(2.0 / float64(fanIn))
	return RandNormal(rng, 0, std, fanIn, fanOut)
}

// HeInitShape initialises a tensor of arbitrary shape with He normal scaling
// computed from the given fan-in (used for convolution kernels).
func HeInitShape(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	std := math.Sqrt(2.0 / float64(fanIn))
	return RandNormal(rng, 0, std, shape...)
}
