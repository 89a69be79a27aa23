// Package fairness implements Part 3.1 of the tutorial: group fairness
// metrics (demographic parity, disparate impact, equal opportunity), and
// the mitigation techniques it surveys — pre-processing (reweighing and
// preferential sampling), in-processing (adversarial debiasing), and
// post-processing (per-group thresholds and correlated-neuron ablation).
package fairness

import (
	"math"
	"math/rand"
)

// Report summarises group fairness for binary predictions against binary
// labels and a binary protected attribute (group 1 = protected).
type Report struct {
	// PosRate[g] is P(ŷ=1 | group=g) — the selection rate.
	PosRate [2]float64
	// TPR[g] is P(ŷ=1 | y=1, group=g); FPR[g] is P(ŷ=1 | y=0, group=g).
	TPR, FPR [2]float64
	Accuracy float64
}

// Evaluate computes the report. preds and labels are 0/1; group identifies
// each example's protected-attribute value.
func Evaluate(preds, labels, group []int) Report {
	var pos, n, tp, fn, fp, tn [2]float64
	correct := 0
	for i := range preds {
		g := group[i]
		n[g]++
		if preds[i] == 1 {
			pos[g]++
		}
		switch {
		case labels[i] == 1 && preds[i] == 1:
			tp[g]++
		case labels[i] == 1 && preds[i] == 0:
			fn[g]++
		case labels[i] == 0 && preds[i] == 1:
			fp[g]++
		default:
			tn[g]++
		}
		if preds[i] == labels[i] {
			correct++
		}
	}
	var r Report
	for g := 0; g < 2; g++ {
		if n[g] > 0 {
			r.PosRate[g] = pos[g] / n[g]
		}
		if tp[g]+fn[g] > 0 {
			r.TPR[g] = tp[g] / (tp[g] + fn[g])
		}
		if fp[g]+tn[g] > 0 {
			r.FPR[g] = fp[g] / (fp[g] + tn[g])
		}
	}
	r.Accuracy = float64(correct) / float64(len(preds))
	return r
}

// DemographicParityGap is |P(ŷ=1|g=0) − P(ŷ=1|g=1)|; 0 is parity.
func (r Report) DemographicParityGap() float64 {
	return math.Abs(r.PosRate[0] - r.PosRate[1])
}

// DisparateImpact is the ratio min/max of selection rates; the "80% rule"
// flags values below 0.8.
func (r Report) DisparateImpact() float64 {
	lo, hi := r.PosRate[0], r.PosRate[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		return 1
	}
	return lo / hi
}

// EqualOpportunityGap is the absolute TPR difference between groups.
func (r Report) EqualOpportunityGap() float64 {
	return math.Abs(r.TPR[0] - r.TPR[1])
}

// Reweigh computes per-example weights that make label and group
// statistically independent in the training set (Kamiran & Calders):
// w(g, y) = P(g)·P(y) / P(g, y).
func Reweigh(labels, group []int) []float64 {
	n := float64(len(labels))
	var pg, py [2]float64
	var pgy [2][2]float64
	for i := range labels {
		pg[group[i]]++
		py[labels[i]]++
		pgy[group[i]][labels[i]]++
	}
	w := make([]float64, len(labels))
	for i := range labels {
		g, y := group[i], labels[i]
		joint := pgy[g][y] / n
		if joint == 0 {
			w[i] = 1
			continue
		}
		w[i] = (pg[g] / n) * (py[y] / n) / joint
	}
	return w
}

// PreferentialSample returns example indices resampled (with replacement)
// so that label and group are statistically independent — the sampling
// counterpart of Reweigh for training APIs that cannot take weights. The
// output has the same length as the input data.
func PreferentialSample(rng *rand.Rand, labels, group []int) []int {
	w := Reweigh(labels, group)
	// Build the cumulative distribution over examples ∝ weights.
	cum := make([]float64, len(w))
	var total float64
	for i, v := range w {
		total += v
		cum[i] = total
	}
	out := make([]int, len(w))
	for i := range out {
		r := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}
