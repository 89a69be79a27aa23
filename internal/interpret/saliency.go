package interpret

import (
	"math"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Saliency returns |∂logit_class/∂input| for each input element of a single
// example (any input shape): the gradient-based attribution map the
// tutorial's visualization section describes.
func Saliency(net *nn.Network, x *tensor.Tensor, class int) *tensor.Tensor {
	out := net.Forward(x, true)
	dout := tensor.New(out.Shape()...)
	dout.Set(1, 0, class)
	dx := net.Backward(dout)
	return tensor.Apply(dx, math.Abs)
}

// SaliencyMass returns the fraction of total saliency falling on the pixels
// marked true in mask — how concentrated the attribution is on a known
// ground-truth region (E28).
func SaliencyMass(sal *tensor.Tensor, mask []bool) float64 {
	var in, total float64
	for i, v := range sal.Data {
		total += v
		if mask[i%len(mask)] {
			in += v
		}
	}
	if total == 0 {
		return 0
	}
	return in / total
}
