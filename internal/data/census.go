package data

import (
	"math/rand"

	"dlsys/internal/tensor"
)

// CensusConfig controls BiasedCensus generation for the fairness
// experiments (E21-E24).
type CensusConfig struct {
	N int
	// Bias in [0, 1] injects label bias against the protected group: with
	// probability Bias, a protected-group example whose merit would earn a
	// positive label is flipped to negative (historical discrimination
	// baked into training labels).
	Bias float64
}

// The census population: the fraction of examples in the protected group,
// and how strongly the proxy features encode group membership. Even with
// the protected attribute excluded from the features, the model can infer
// it — the "retina" effect the tutorial describes.
const (
	censusGroupFrac float64 = 0.4
	censusLeakage   float64 = 0.8
)

// CensusData is a census-like tabular dataset with a protected binary
// attribute. Features deliberately EXCLUDE the protected attribute; Group
// records it per example for auditing. TrueMerit holds the unbiased label
// before bias injection, so experiments can measure how far a model strays
// from the fair ground truth.
type CensusData struct {
	*Dataset
	Group     []int // 0 = reference group, 1 = protected group
	TrueMerit []int // unbiased label
}

// BiasedCensus generates a synthetic income-classification dataset with
// injectable historical bias. Features: years of education, experience,
// hours/week, plus two proxy features correlated with group membership
// (e.g. neighbourhood, industry code).
func BiasedCensus(rng *rand.Rand, cfg CensusConfig) *CensusData {
	const dim = 5
	x := tensor.New(cfg.N, dim)
	labels := make([]int, cfg.N)
	group := make([]int, cfg.N)
	merit := make([]int, cfg.N)
	for i := 0; i < cfg.N; i++ {
		g := 0
		if rng.Float64() < censusGroupFrac {
			g = 1
		}
		group[i] = g
		edu := rng.NormFloat64()   // standardised years of education
		exp := rng.NormFloat64()   // standardised experience
		hours := rng.NormFloat64() // standardised hours/week
		score := 0.9*edu + 0.7*exp + 0.4*hours + 0.3*rng.NormFloat64()
		m := 0
		if score > 0 {
			m = 1
		}
		merit[i] = m
		label := m
		if g == 1 && m == 1 && rng.Float64() < cfg.Bias {
			label = 0 // historical discrimination: qualified but denied
		}
		labels[i] = label
		// Proxy features leak group membership.
		proxy1 := censusLeakage*float64(g) + (1-censusLeakage)*rng.NormFloat64()
		proxy2 := censusLeakage*float64(1-g) + (1-censusLeakage)*rng.NormFloat64()
		row := x.Row(i)
		row[0], row[1], row[2], row[3], row[4] = edu, exp, hours, proxy1, proxy2
	}
	return &CensusData{
		Dataset:   &Dataset{X: x, Labels: labels, Classes: 2},
		Group:     group,
		TrueMerit: merit,
	}
}

// SplitCensus splits a CensusData preserving group/merit alignment.
func (c *CensusData) SplitCensus(rng *rand.Rand, trainFrac float64) (train, test *CensusData) {
	n := c.N()
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	return c.subsetCensus(perm[:nTrain]), c.subsetCensus(perm[nTrain:])
}

func (c *CensusData) subsetCensus(idx []int) *CensusData {
	ds := c.Dataset.subset(idx)
	group := make([]int, len(idx))
	merit := make([]int, len(idx))
	for bi, i := range idx {
		group[bi] = c.Group[i]
		merit[bi] = c.TrueMerit[i]
	}
	return &CensusData{Dataset: ds, Group: group, TrueMerit: merit}
}
