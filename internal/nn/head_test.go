package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dlsys/internal/tensor"
)

// unfusedSoftmaxInto is the softmax as it was before the fused head: rows
// through Row, exp at every term, the row's max included.
func unfusedSoftmaxInto(out, logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic("nn: Softmax requires rank-2 logits")
	}
	m := logits.Dim(0)
	for i := 0; i < m; i++ {
		row := logits.Row(i)
		orow := out.Row(i)
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - max)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

// unfusedHead is SoftmaxCrossEntropy as it was before the fused head: the
// softmax, then the loss over the probabilities, then the gradient in
// Backward.
type unfusedHead struct {
	probs, target, grad *tensor.Tensor
}

func (l *unfusedHead) Forward(logits, target *tensor.Tensor) float64 {
	l.probs = unfusedSoftmaxInto(tensor.New(logits.Shape()...), logits)
	l.target = target
	m := logits.Dim(0)
	var loss float64
	for i := range l.probs.Data {
		if t := target.Data[i]; t > 0 {
			loss -= t * math.Log(math.Max(l.probs.Data[i], 1e-300))
		}
	}
	return loss / float64(m)
}

func (l *unfusedHead) Backward() *tensor.Tensor {
	mustSameShape("SoftmaxCrossEntropy", l.probs, l.target)
	l.grad = tensor.New(l.probs.Shape()...)
	scale := 1 / float64(l.probs.Dim(0))
	for i, p := range l.probs.Data {
		l.grad.Data[i] = (p - l.target.Data[i]) * scale
	}
	return l.grad
}

// headRows returns logit rows of width w that reach every branch of the
// softmax: ties at the max, NaN first, inside and everywhere, ±Inf alone
// and twice (where v − max is NaN), ±0 in both orders, terms whose exp
// underflows to 0 or is subnormal, differences too small to move exp off
// 1, and random rows.
func headRows(rng *rand.Rand, w int) [][]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	negz := math.Copysign(0, -1)
	// fill repeats pattern across a row of width w.
	fill := func(pattern ...float64) []float64 {
		row := make([]float64, w)
		for j := range row {
			row[j] = pattern[j%len(pattern)]
		}
		return row
	}
	rows := [][]float64{
		fill(0),
		fill(negz),
		fill(negz, 0),
		fill(0, negz),
		fill(3.25),
		fill(1, 1, -2),
		fill(-2, 1, 1),
		fill(nan),
		fill(nan, 1),
		fill(1, nan),
		fill(2, 1, nan),
		fill(inf),
		fill(-inf),
		fill(inf, 0),
		fill(0, inf, inf),
		fill(-inf, 0),
		fill(inf, -inf),
		fill(nan, inf),
		fill(0, -800),
		fill(0, -745.13),
		fill(0, -708.5, -1000),
		fill(700, -700),
		fill(1e308, -1e308),
		fill(5e-324, 0),
		fill(0, -1e-17),
		fill(math.MaxFloat64, 0, -math.MaxFloat64),
	}
	for i := 0; i < 24; i++ {
		row := make([]float64, w)
		for j := range row {
			row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)))
		}
		rows = append(rows, row)
	}
	return rows
}

// headTargets returns one-hot, soft (with zero entries) and all-zero
// target rows for m logit rows of width w.
func headTargets(rng *rand.Rand, m, w int) map[string]*tensor.Tensor {
	hot, soft, zero := tensor.New(m, w), tensor.New(m, w), tensor.New(m, w)
	for i := 0; i < m; i++ {
		hot.Data[i*w+rng.Intn(w)] = 1
		var sum float64
		row := soft.Row(i)
		for j := range row {
			if rng.Intn(3) > 0 {
				row[j] = rng.Float64()
				sum += row[j]
			}
		}
		for j := range row {
			if sum > 0 {
				row[j] /= sum
			}
		}
	}
	return map[string]*tensor.Tensor{"one-hot": hot, "soft": soft, "zero": zero}
}

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}

// The fused head gives the unfused head's bits: every probability, the
// loss and every gradient element, across widths 1, 2, 3 and 10, rows
// with ties and non-finite values, and one-hot, soft and all-zero
// targets. Softmax gives the unfused softmax's bits on the same rows.
// The loss is run twice per case so the second Forward writes into
// buffers the first one sized.
func TestFusedHeadMatchesUnfusedHead(t *testing.T) {
	for _, one := range []float64{math.Exp(0), math.Exp(math.Copysign(0, -1))} {
		if math.Float64bits(one) != math.Float64bits(1) {
			t.Fatalf("math.Exp(±0) = %v (bits %#x), want exactly 1: the softmax skips exp where v − max is ±0", one, math.Float64bits(one))
		}
	}
	rng := rand.New(rand.NewSource(27))
	for _, w := range []int{1, 2, 3, 10} {
		rows := headRows(rng, w)
		m := len(rows)
		logits := tensor.New(m, w)
		for i, row := range rows {
			copy(logits.Row(i), row)
		}
		want := unfusedSoftmaxInto(tensor.New(m, w), logits)
		if i, ok := sameBits(Softmax(logits).Data, want.Data); !ok {
			t.Errorf("width %d: Softmax element %d (row %v) = %v, unfused %v", w, i, rows[i/w], Softmax(logits).Data[i], want.Data[i])
		}
		l := NewSoftmaxCrossEntropy()
		for name, target := range headTargets(rng, m, w) {
			for pass := 0; pass < 2; pass++ {
				ref := &unfusedHead{}
				wantLoss := ref.Forward(logits, target)
				wantGrad := ref.Backward()
				gotLoss := l.Forward(logits, target)
				gotGrad := l.Backward()
				where := fmt.Sprintf("width %d, %s targets, pass %d", w, name, pass)
				if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
					t.Errorf("%s: loss %v, unfused %v", where, gotLoss, wantLoss)
				}
				if i, ok := sameBits(l.Probs().Data, ref.probs.Data); !ok {
					t.Errorf("%s: probability %d (row %v) = %v, unfused %v", where, i, rows[i/w], l.Probs().Data[i], ref.probs.Data[i])
				}
				if i, ok := sameBits(gotGrad.Data, wantGrad.Data); !ok {
					t.Errorf("%s: gradient %d (row %v) = %v, unfused %v", where, i, rows[i/w], gotGrad.Data[i], wantGrad.Data[i])
				}
				if !gotGrad.SameShape(logits) {
					t.Errorf("%s: gradient shape %v, want %v", where, gotGrad.Shape(), logits.Shape())
				}
			}
		}
	}
}

// Forward checks the target's shape itself: a transposed target has as
// many elements as the logits and a narrower one fewer, and both must
// fail with the shape message rather than return a loss or index past
// the target.
func TestFusedHeadRejectsMismatchedTarget(t *testing.T) {
	logits := tensor.New(4, 3)
	for _, target := range []*tensor.Tensor{tensor.New(3, 4), tensor.New(4, 2)} {
		func() {
			want := fmt.Sprintf("nn: SoftmaxCrossEntropy prediction shape [4 3] != target shape %v", target.Shape())
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, want) {
					t.Errorf("target %v: Forward panicked with %v, want %q", target.Shape(), r, want)
				}
			}()
			l := NewSoftmaxCrossEntropy()
			loss := l.Forward(logits, target)
			t.Errorf("target %v: Forward returned loss %v", target.Shape(), loss)
		}()
	}
}
