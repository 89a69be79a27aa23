package nn

import "math"

// Optimizer updates parameters from their accumulated gradients. Step must
// be followed by ZeroGrad on the network (the Trainer does this).
type Optimizer interface {
	Step(params []*Param)
	// SetLR changes the learning rate (used by schedules).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// StateResetter is implemented by optimizers that carry per-parameter state
// (Adam's moments). Checkpoint rollback calls ResetState so stale state
// accumulated from diverging steps cannot re-poison the restored parameters.
type StateResetter interface {
	ResetState()
}

// SGD is plain stochastic gradient descent with optional L2 weight decay.
type SGD struct {
	lr          float64
	WeightDecay float64
}

// NewSGD creates a plain SGD optimizer.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// Step implements Optimizer.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		for i := range p.Value.Data {
			g := p.Grad.Data[i] + o.WeightDecay*p.Value.Data[i]
			p.Value.Data[i] -= o.lr * g
		}
	}
}

// SetLR implements Optimizer.
func (o *SGD) SetLR(lr float64) { o.lr = lr }

// LR implements Optimizer.
func (o *SGD) LR() float64 { return o.lr }

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	lr, Beta1, Beta2, Eps float64
	WeightDecay           float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam creates an Adam optimizer with standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64),
	}
}

// Step implements Optimizer.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, p.Value.Size())
			o.m[p] = m
			o.v[p] = make([]float64, p.Value.Size())
		}
		v := o.v[p]
		for i := range p.Value.Data {
			g := p.Grad.Data[i] + o.WeightDecay*p.Value.Data[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Value.Data[i] -= o.lr * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// ResetState implements StateResetter: it discards both moment estimates and
// the bias-correction step count.
func (o *Adam) ResetState() {
	o.t = 0
	o.m = make(map[*Param][]float64)
	o.v = make(map[*Param][]float64)
}

// SetLR implements Optimizer.
func (o *Adam) SetLR(lr float64) { o.lr = lr }

// LR implements Optimizer.
func (o *Adam) LR() float64 { return o.lr }

// LRSchedule maps a global step/epoch index to a learning rate.
type LRSchedule func(epoch int) float64

// CyclicCosineLR implements the snapshot-ensembles schedule: the cosine
// annealing restarts every cycleLen epochs, so the model repeatedly
// converges into (different) local minima. A snapshot is taken at the end
// of each cycle, where the LR is near zero.
func CyclicCosineLR(lr float64, cycleLen int) LRSchedule {
	return func(epoch int) float64 {
		pos := epoch % cycleLen
		return lr / 2 * (1 + math.Cos(math.Pi*float64(pos)/float64(cycleLen)))
	}
}
