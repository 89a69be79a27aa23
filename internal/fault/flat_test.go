package fault

import (
	"fmt"
	"math"
	"testing"
)

// flatRates is a test-only copy of the per-round rates Config carried
// before every fault fired through a window, with the draws they made: a
// rate p fired when unit(kind, worker, step, attempt) < p, a multiplier at
// or below 1 (or, for an attack magnitude, at or below 0) took its
// default, and the listed Byzantine workers attacked with one kind every
// round.
type flatRates struct {
	inj                            *Injector // supplies the seed to oracleUnit
	crash, straggle, drop, corrupt float64
	batch, label, lrSpike          float64
	linkDrop, linkSlow, partition  float64
	straggleF, lrSpikeF, linkSlowF float64
	restartDelay, partitionRounds  int
	byzWorkers                     []int
	byzKind                        Kind
	signFlip, scale, drift, boost  float64
}

// The flat builders as they were: Rate, NumericalRate, LinkRate and
// Byzantine, the last with an optional magnitude set on its attack's field.
func flatRate(seed int64, rate float64) flatRates {
	return flatRates{inj: &Injector{cfg: Config{Seed: seed}}, crash: rate / 10, restartDelay: 3,
		straggle: rate, straggleF: 8, drop: rate, corrupt: rate / 5}
}

func flatNumerical(seed int64, rate float64) flatRates {
	return flatRates{inj: &Injector{cfg: Config{Seed: seed}}, batch: rate, label: rate / 2, lrSpike: rate / 5, lrSpikeF: 64}
}

func flatLink(seed int64, rate float64) flatRates {
	return flatRates{inj: &Injector{cfg: Config{Seed: seed}}, linkDrop: rate, linkSlow: rate / 2, linkSlowF: 8,
		partition: rate / 20, partitionRounds: 3}
}

func flatByzantine(seed int64, kind Kind, magnitude float64, workers ...int) flatRates {
	f := flatRates{inj: &Injector{cfg: Config{Seed: seed}}, byzWorkers: workers, byzKind: kind}
	switch kind {
	case KindSignFlip:
		f.signFlip = magnitude
	case KindScaleAttack:
		f.scale = magnitude
	case KindDriftAttack:
		f.drift = magnitude
	case KindCollude:
		f.boost = magnitude
	}
	return f
}

func (f flatRates) chance(kind Kind, worker, step, attempt int, p float64) bool {
	return oracleChance(f.inj, kind, worker, step, attempt, p)
}

func (f flatRates) scaled(kind Kind, key, step int, p, factor, def float64) float64 {
	if !f.chance(kind, key, step, 0, p) {
		return 1
	}
	if factor <= 1 {
		return def
	}
	return factor
}

func (f flatRates) partitionAt(round int) (int, bool) {
	dur := f.partitionRounds
	if dur <= 0 {
		dur = 3
	}
	for r := round; r > round-dur && r >= 0; r-- {
		if f.chance(KindPartition, 0, r, 0, f.partition) {
			return r, true
		}
	}
	return 0, false
}

func (f flatRates) byzantine(worker, round int) (Kind, bool) {
	for _, w := range f.byzWorkers {
		if w == worker {
			return f.byzKind, f.chance(f.byzKind, worker, round, 0, 1)
		}
	}
	return 0, false
}

func orDefault(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

func (f flatRates) corruptGradient(g []float64, worker, round int) bool {
	kind, fires := f.byzantine(worker, round)
	if !fires {
		return false
	}
	switch kind {
	case KindSignFlip:
		m := orDefault(f.signFlip, 100)
		for j := range g {
			g[j] *= -m
		}
	case KindScaleAttack:
		m := orDefault(f.scale, 100)
		for j := range g {
			g[j] *= m
		}
	case KindDriftAttack:
		b := orDefault(f.drift, 1.5)
		h0 := splitmix64(uint64(f.inj.cfg.Seed)) ^ splitmix64(uint64(KindDriftAttack)<<32)
		for j := range g {
			if splitmix64(h0^uint64(j))&1 == 0 {
				g[j] += b
			} else {
				g[j] -= b
			}
		}
	case KindCollude:
		m := orDefault(f.boost, 50)
		for j := range g {
			g[j] *= m
		}
	}
	return true
}

// TestWindowsMatchFlatRates holds the always-on windows the four builders
// return to the flat rates they replaced: every draw, by bits, for workers
// 0–7, rounds 0–63 and attempts 0–4, with no clock and with a clock at 0
// and at 1e3, at rates 0 to 1 and for every attack with one and three
// adversaries at the default and two set magnitudes.
func TestWindowsMatchFlatRates(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
		flat flatRates
	}
	var scenarios []scenario
	for _, rate := range []float64{0, 0.02, 0.05, 0.1, 0.12, 0.2, 0.3, 1} {
		scenarios = append(scenarios,
			scenario{fmt.Sprintf("rate-%g", rate), Rate(7, rate), flatRate(7, rate)},
			scenario{fmt.Sprintf("numerical-%g", rate), NumericalRate(8, rate), flatNumerical(8, rate)},
			scenario{fmt.Sprintf("link-%g", rate), LinkRate(9, rate), flatLink(9, rate)})
	}
	for _, kind := range []Kind{KindSignFlip, KindScaleAttack, KindDriftAttack, KindCollude} {
		for _, workers := range [][]int{{3}, {1, 4, 6}} {
			for _, m := range []float64{0, 6, 1e4} {
				cfg := Byzantine(10, kind, workers...)
				cfg.Schedule[0].Factor = m
				scenarios = append(scenarios, scenario{fmt.Sprintf("%v-%v-m%g", kind, workers, m), cfg,
					flatByzantine(10, kind, m, workers...)})
			}
		}
	}
	const workers, rounds, attempts = 8, 64, 5
	base := []float64{1, -2, 0.5, 3, -0.25, 7}
	fired := map[string]int{}
	for _, sc := range scenarios {
		if err := sc.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		f := sc.flat
		for _, clock := range []*fixedClock{nil, {t: 0}, {t: 1e3}} {
			inj := NewInjector(sc.cfg)
			name := sc.name + "/no-clock"
			if clock != nil {
				inj.SetClock(clock)
				name = fmt.Sprintf("%s/t=%g", sc.name, clock.t)
			}
			same := func(what string, got, want float64) {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %s = %v, flat rate gives %v", name, what, got, want)
				}
				if got != 0 && got != 1 {
					fired[what]++
				}
			}
			b2f := func(b bool) float64 {
				if b {
					return 2
				}
				return 0
			}
			same("RestartDelay", float64(inj.RestartDelay()), float64(orDefaultInt(f.restartDelay)))
			same("PartitionRoundsLen", float64(inj.PartitionRoundsLen()), float64(orDefaultInt(f.partitionRounds)))
			for r := 0; r < rounds; r++ {
				start, active := inj.PartitionAt(r)
				wantStart, wantActive := f.partitionAt(r)
				same("PartitionAt start", float64(start), float64(wantStart))
				same("PartitionAt", b2f(active), b2f(wantActive))
				for w := 0; w < workers; w++ {
					same("Crashes", b2f(inj.Crashes(w, r)), b2f(f.chance(KindCrash, w, r, 0, f.crash)))
					same("StraggleFactor", inj.StraggleFactor(w, r), f.scaled(KindStraggle, w, r, f.straggle, f.straggleF, 8))
					same("CorruptsBatch", b2f(inj.CorruptsBatch(w, r)), b2f(f.chance(KindBatchCorrupt, w, r, 0, f.batch)))
					same("LabelNoise", b2f(inj.LabelNoise(w, r)), b2f(f.chance(KindLabelNoise, w, r, 0, f.label)))
					same("LRSpikeFactor", inj.LRSpikeFactor(w, r), f.scaled(KindLRSpike, w, r, f.lrSpike, f.lrSpikeF, 64))
					kind, fires := f.byzantine(w, r)
					same("ByzantineFires", b2f(inj.ByzantineFires(w, r)), b2f(fires))
					same("ColludesBatch", b2f(inj.ColludesBatch(w, r)), b2f(fires && kind == KindCollude))
					got, want := append([]float64(nil), base...), append([]float64(nil), base...)
					same("CorruptGradient", b2f(inj.CorruptGradient(got, w, r)), b2f(f.corruptGradient(want, w, r)))
					for j := range got {
						same("CorruptGradient output", got[j], want[j])
					}
					for a := 0; a < attempts; a++ {
						same("Drops", b2f(inj.Drops(w, r, a)), b2f(f.chance(KindDrop, w, r, a, f.drop)))
						same("Corrupts", b2f(inj.Corrupts(w, r, a)), b2f(f.chance(KindCorrupt, w, r, a, f.corrupt)))
					}
					for dst := 0; dst < workers; dst++ {
						key := linkKey(w, dst)
						l := inj.Link(w, dst, r)
						same("Link.Slow", l.Slow(), f.scaled(KindLinkSlow, key, r, f.linkSlow, f.linkSlowF, 8))
						for seq := 0; seq < 3; seq++ {
							for a := 0; a < attempts; a++ {
								same("Link.Drops", b2f(l.Drops(seq, a)), b2f(f.chance(KindLinkDrop, key, r, seq*1024+a, f.linkDrop)))
							}
						}
					}
				}
			}
		}
	}
	// The sweep must reach every draw firing at least once.
	for _, what := range []string{"PartitionAt", "Crashes", "StraggleFactor", "CorruptsBatch", "LabelNoise",
		"LRSpikeFactor", "ByzantineFires", "ColludesBatch", "CorruptGradient", "Drops", "Corrupts", "Link.Slow", "Link.Drops"} {
		if fired[what] == 0 {
			t.Errorf("%s never fired across the sweep", what)
		}
	}
}

func orDefaultInt(n int) int {
	if n <= 0 {
		return 3
	}
	return n
}
