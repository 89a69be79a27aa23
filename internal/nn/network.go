package nn

import (
	"fmt"
	"math/rand"

	"dlsys/internal/tensor"
)

// Network is an ordered sequence of layers trained end to end.
type Network struct {
	Layers []Layer
}

// NewNetwork creates a network from the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// MLPConfig describes a multi-layer perceptron: input width, hidden widths,
// and output width (number of classes or regression targets).
type MLPConfig struct {
	In      int
	Hidden  []int
	Out     int
	Dropout float64 // 0 disables
	BatchNm bool
}

// Validate checks the config describes a constructible network: positive
// widths everywhere and a dropout rate in [0, 1). Callers that accept
// configs from untrusted input (distributed specs, pipelines) validate at
// construction so no layer constructor can fail downstream.
func (cfg MLPConfig) Validate() error {
	if cfg.In < 1 {
		return fmt.Errorf("nn: MLP input width %d < 1", cfg.In)
	}
	if cfg.Out < 1 {
		return fmt.Errorf("nn: MLP output width %d < 1", cfg.Out)
	}
	for i, h := range cfg.Hidden {
		if h < 1 {
			return fmt.Errorf("nn: MLP hidden width %d (layer %d) < 1", h, i)
		}
	}
	if cfg.Dropout < 0 || cfg.Dropout >= 1 {
		return fmt.Errorf("nn: MLP dropout rate %g out of [0, 1)", cfg.Dropout)
	}
	return nil
}

// NewMLP builds a ReLU MLP per the config. Layer names are deterministic
// ("fc0", "relu0", ...) so state dictionaries are portable between
// identically-configured networks. Invalid configs panic; use
// NewMLPChecked when the config comes from untrusted input.
func NewMLP(rng *rand.Rand, cfg MLPConfig) *Network {
	net, err := NewMLPChecked(rng, cfg)
	if err != nil {
		panic(err)
	}
	return net
}

// NewMLPChecked is NewMLP returning the config-validation error instead of
// panicking.
func NewMLPChecked(rng *rand.Rand, cfg MLPConfig) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var layers []Layer
	prev := cfg.In
	for i, h := range cfg.Hidden {
		layers = append(layers, NewDense(rng, fmt.Sprintf("fc%d", i), prev, h))
		if cfg.BatchNm {
			layers = append(layers, NewBatchNorm(fmt.Sprintf("bn%d", i), h))
		}
		layers = append(layers, NewReLU(fmt.Sprintf("relu%d", i)))
		if cfg.Dropout > 0 {
			// The validated rate cannot make NewDropout fail.
			drop, _ := NewDropout(rng, fmt.Sprintf("drop%d", i), cfg.Dropout)
			layers = append(layers, drop)
		}
		prev = h
	}
	layers = append(layers, NewDense(rng, fmt.Sprintf("fc%d", len(cfg.Hidden)), prev, cfg.Out))
	return NewNetwork(layers...), nil
}

// Forward runs the network on a batch, returning the final output (logits
// for classifiers). When train is true, every layer caches for backward.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates dout through all layers in reverse, accumulating
// parameter gradients, and returns the gradient w.r.t. the network input.
func (n *Network) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	return dout
}

// backwardParams is Backward for a training step, which reads only the
// parameter gradients: a first Dense layer stops at its own, skipping the
// product that would give the gradient with respect to the input.
func (n *Network) backwardParams(dout *tensor.Tensor) {
	for i := len(n.Layers) - 1; i > 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	if len(n.Layers) == 0 {
		return
	}
	if d, ok := n.Layers[0].(*Dense); ok {
		d.backwardParams(dout)
		return
	}
	n.Layers[0].Backward(dout)
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// PostStepper is implemented by layers that must restore invariants after
// an optimizer update (e.g. masked Dense layers re-zeroing pruned weights,
// which momentum-carrying optimizers would otherwise perturb).
type PostStepper interface {
	PostStep()
}

// PostStep invokes PostStep on every layer that implements PostStepper.
// Trainers call it after each optimizer step.
func (n *Network) PostStep() {
	for _, l := range n.Layers {
		if ps, ok := l.(PostStepper); ok {
			ps.PostStep()
		}
	}
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() { ZeroGrads(n.Params()) }

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Size()
	}
	return total
}

// ParamBytes returns the model size in bytes at the given precision
// (bits per weight), e.g. 32 for float32 deployment, 8 for int8.
func (n *Network) ParamBytes(bits int) int64 {
	return (int64(n.NumParams())*int64(bits) + 7) / 8
}

// FLOPs estimates the forward-pass floating point operations for a batch.
func (n *Network) FLOPs(batch int) int64 {
	var total int64
	for _, l := range n.Layers {
		if fc, ok := l.(FLOPsCounter); ok {
			total += fc.FLOPs(batch)
		}
	}
	return total
}

// Predict returns the argmax class for each row of x.
func (n *Network) Predict(x *tensor.Tensor) []int {
	out := n.Forward(x, false)
	preds := make([]int, out.Dim(0))
	for i := range preds {
		preds[i] = out.ArgMaxRow(i)
	}
	return preds
}

// Accuracy returns the fraction of rows of x whose argmax prediction equals
// the label.
func (n *Network) Accuracy(x *tensor.Tensor, labels []int) float64 {
	preds := n.Predict(x)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// ParamVector flattens all parameter values into a single slice in layer
// order. Used by distributed training and ensemble interpolation.
func (n *Network) ParamVector() []float64 {
	return n.ParamVectorInto(make([]float64, 0, n.NumParams()))
}

// ParamVectorInto flattens the parameters into dst, reusing its capacity,
// and returns the (possibly regrown) slice. Loops that repeatedly snapshot
// or average models use it to avoid a fresh allocation per call.
func (n *Network) ParamVectorInto(dst []float64) []float64 {
	dst = dst[:0]
	for _, p := range n.Params() {
		dst = append(dst, p.Value.Data...)
	}
	return dst
}

// SetParamVector writes a flat vector (from ParamVector of an identically
// shaped network) back into the parameters.
func (n *Network) SetParamVector(v []float64) {
	off := 0
	for _, p := range n.Params() {
		m := copy(p.Value.Data, v[off:off+p.Value.Size()])
		off += m
	}
	if off != len(v) {
		panic(fmt.Sprintf("nn: SetParamVector length %d != model size %d", len(v), off))
	}
}

// GradVector flattens all parameter gradients into a single slice.
func (n *Network) GradVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Grad.Data...)
	}
	return out
}

// SetGradVector overwrites all parameter gradients from a flat vector.
func (n *Network) SetGradVector(v []float64) {
	off := 0
	for _, p := range n.Params() {
		off += copy(p.Grad.Data, v[off:off+p.Grad.Size()])
	}
	if off != len(v) {
		panic(fmt.Sprintf("nn: SetGradVector length %d != model size %d", len(v), off))
	}
}

// StateDict captures all parameter values keyed by name (plus batch-norm
// running statistics under ".running_mean"/".running_var" suffixes).
func (n *Network) StateDict() map[string][]float64 {
	sd := make(map[string][]float64)
	for _, p := range n.Params() {
		sd[p.Name] = append([]float64(nil), p.Value.Data...)
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			mean, variance := bn.RunningStats()
			sd[bn.Name()+".running_mean"] = append([]float64(nil), mean...)
			sd[bn.Name()+".running_var"] = append([]float64(nil), variance...)
		}
	}
	return sd
}

// LoadStateDict restores parameters (and batch-norm statistics) captured by
// StateDict on an identically-architected network. Unknown keys are ignored;
// missing keys leave the current value in place.
func (n *Network) LoadStateDict(sd map[string][]float64) {
	for _, p := range n.Params() {
		if v, ok := sd[p.Name]; ok {
			copy(p.Value.Data, v)
		}
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			mean, haveM := sd[bn.Name()+".running_mean"]
			variance, haveV := sd[bn.Name()+".running_var"]
			if haveM && haveV {
				bn.SetRunningStats(mean, variance)
			}
		}
	}
}

// CloneMLP builds a fresh MLP with the same configuration and copies this
// network's state into it. It requires that n was built by NewMLP with cfg.
func CloneMLP(n *Network, rng *rand.Rand, cfg MLPConfig) *Network {
	c := NewMLP(rng, cfg)
	c.LoadStateDict(n.StateDict())
	return c
}
