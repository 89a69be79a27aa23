package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"dlsys/internal/tensor"
)

// Network is an ordered sequence of layers trained end to end. Build it
// with NewNetwork and leave Layers as built: the parameter list is taken
// from them once, there.
type Network struct {
	Layers []Layer
	params []*Param // every layer's parameters in layer order, cap == len
}

// NewNetwork creates a network from the given layers and takes their
// parameter list once, so Params allocates nothing and concurrent readers
// need no lock.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{Layers: layers}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	n.params = slices.Clip(n.params)
	return n
}

// MLPConfig describes a multi-layer perceptron: input width, hidden widths,
// and output width (number of classes or regression targets).
type MLPConfig struct {
	In     int
	Hidden []int
	Out    int
}

// Validate checks the config describes a constructible network: positive
// widths everywhere. Callers that accept configs from untrusted input
// (distributed specs, pipelines) validate at construction so no layer
// constructor can fail downstream.
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
	return mlp(cfg, func(name string, in, out int) *Dense { return NewDense(rng, name, in, out) }), nil
}

// mlp lays out cfg's Dense→ReLU stack, building each Dense with dense.
func mlp(cfg MLPConfig, dense func(name string, in, out int) *Dense) *Network {
	var layers []Layer
	prev := cfg.In
	for i, h := range cfg.Hidden {
		layers = append(layers, dense(fmt.Sprintf("fc%d", i), prev, h))
		layers = append(layers, NewReLU(fmt.Sprintf("relu%d", i)))
		prev = h
	}
	layers = append(layers, dense(fmt.Sprintf("fc%d", len(cfg.Hidden)), prev, cfg.Out))
	return NewNetwork(layers...)
}

// Forward runs the network on a batch, returning the final output (logits
// for classifiers). When train is true, every layer caches for backward.
//
// Each Dense→ReLU→Dense run in the layer list (reluRun) is fused: the
// first Dense writes relu(xW + b) in one kernel call, and the ReLU only
// records that output, which is the bits its own Forward would return.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for i := 0; i < len(n.Layers); i++ {
		if d, r := reluRun(n.Layers, i); r != nil {
			x = d.forward(x, train, true)
			r.record(x, train)
			i++
			continue
		}
		x = n.Layers[i].Forward(x, train)
	}
	return x
}

// Backward propagates dout through all layers in reverse, accumulating
// parameter gradients, and returns the gradient w.r.t. the network input.
func (n *Network) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return n.backward(dout, 0)
}

// backwardParams is Backward for a training step, which reads only the
// parameter gradients: a first Dense layer stops at its own, skipping the
// product that would give the gradient with respect to the input.
func (n *Network) backwardParams(dout *tensor.Tensor) {
	if len(n.Layers) == 0 {
		return
	}
	if d, ok := n.Layers[0].(*Dense); ok {
		d.backwardParams(n.backward(dout, 1))
		return
	}
	n.backward(dout, 0)
}

// backward propagates dout from the last layer down to layer stop and
// returns the gradient with respect to layer stop's input. The second
// Dense of each Dense→ReLU→Dense run gates its input gradient by its
// cached input, the ReLU's output, in the same kernel call, and the ReLU's
// own Backward is skipped.
func (n *Network) backward(dout *tensor.Tensor, stop int) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= stop; i-- {
		if _, r := reluRun(n.Layers, i-2); r != nil && i-1 >= stop {
			dout = n.Layers[i].(*Dense).backwardGated(dout)
			i--
			continue
		}
		dout = n.Layers[i].Backward(dout)
	}
	return dout
}

// reluRun reports whether layers i, i+1 and i+2 are a Dense, a ReLU and a
// Dense, a run the walks fuse: it returns the first Dense and the ReLU, or
// nil for both. The ReLU's output is > 0 exactly where its input is, so
// the second Dense's cached input is a gate with the ReLU mask's bits.
func reluRun(layers []Layer, i int) (*Dense, *ReLU) {
	if i < 0 || i+2 >= len(layers) {
		return nil, nil
	}
	d, ok := layers[i].(*Dense)
	r, isReLU := layers[i+1].(*ReLU)
	_, next := layers[i+2].(*Dense)
	if !ok || !isReLU || !next {
		return nil, nil
	}
	return d, r
}

// Params returns all trainable parameters in layer order. The list is the
// network's own, built by NewNetwork: callers read it and must not write
// its elements. Its capacity equals its length, so appending to it copies.
func (n *Network) Params() []*Param { return n.params }

// PostStepper is implemented by layers that must restore invariants after
// an optimizer update (e.g. masked Dense layers re-zeroing pruned weights,
// which Adam's moments would otherwise perturb).
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
	return n.GradVectorInto(make([]float64, 0, n.NumParams()))
}

// GradVectorInto flattens the parameter gradients into dst, reusing its
// capacity, and returns the (possibly regrown) slice: ParamVectorInto's
// counterpart, for loops that take a gradient every step.
func (n *Network) GradVectorInto(dst []float64) []float64 {
	dst = dst[:0]
	for _, p := range n.Params() {
		dst = append(dst, p.Grad.Data...)
	}
	return dst
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

// StateDict captures all parameter values keyed by name.
func (n *Network) StateDict() map[string][]float64 {
	sd := make(map[string][]float64)
	for _, p := range n.Params() {
		sd[p.Name] = append([]float64(nil), p.Value.Data...)
	}
	return sd
}

// LoadStateDict restores parameters captured by StateDict on an
// identically-architected network. Unknown keys are ignored; missing keys
// leave the current value in place.
func (n *Network) LoadStateDict(sd map[string][]float64) {
	for _, p := range n.Params() {
		if v, ok := sd[p.Name]; ok {
			copy(p.Value.Data, v)
		}
	}
}

// CloneMLP builds an MLP with the same configuration holding copies of
// this network's parameter values, drawing no weights. It requires that n
// was built by NewMLP with cfg.
func CloneMLP(n *Network, cfg MLPConfig) *Network {
	c := mlp(cfg, func(name string, in, out int) *Dense {
		return &Dense{name: name, W: NewParam(name+".W", tensor.New(in, out)), B: NewParam(name+".b", tensor.New(1, out))}
	})
	for i, p := range n.Params() {
		copy(c.params[i].Value.Data, p.Value.Data)
	}
	return c
}
