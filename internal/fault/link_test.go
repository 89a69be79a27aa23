package fault

import (
	"fmt"
	"math"
	"testing"
)

// linkDrops and linkSlow resolve the link afresh for one draw, the way a
// caller with a single hop would.
func linkDrops(inj *Injector, src, dst, round, hopSeq, attempt int) bool {
	l := inj.Link(src, dst, round)
	return l.Drops(hopSeq, attempt)
}

func linkSlow(inj *Injector, src, dst, round int) float64 {
	l := inj.Link(src, dst, round)
	return l.Slow()
}

func TestLinkDrawsDeterministicAndOrderIndependent(t *testing.T) {
	inj := NewInjector(LinkRate(42, 0.3))

	// Same arguments, same outcome — regardless of interleaved queries.
	first := make([]bool, 0, 64)
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			for round := 0; round < 4; round++ {
				first = append(first, linkDrops(inj, src, dst, round, 1, 0))
			}
		}
	}
	// Re-query in reverse order with unrelated draws interleaved.
	for src := 3; src >= 0; src-- {
		for dst := 3; dst >= 0; dst-- {
			for round := 3; round >= 0; round-- {
				linkSlow(inj, dst, src, round) // unrelated stream
				got := linkDrops(inj, src, dst, round, 1, 0)
				want := first[src*16+dst*4+round]
				if got != want {
					t.Fatalf("Link(%d,%d,%d).Drops changed between queries: %v then %v",
						src, dst, round, want, got)
				}
			}
		}
	}

	// Different hop sequence numbers draw independently: over many links at
	// p=0.3 the two streams must not be identical.
	same := true
	for l := 0; l < 200 && same; l++ {
		if linkDrops(inj, l, l+1, 0, 0, 0) != linkDrops(inj, l, l+1, 0, 1, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("hopSeq does not salt the link-drop stream")
	}
}

func TestLinkDirectionality(t *testing.T) {
	// src→dst and dst→src are distinct links: at p=0.5 the two directions
	// must disagree somewhere across many links.
	inj := NewInjector(Config{Seed: 7, Schedule: []Window{{Kind: KindLinkDrop, Prob: 0.5}}})
	for l := 0; l < 200; l++ {
		if linkDrops(inj, l, l+1, 3, 0, 0) != linkDrops(inj, l+1, l, 3, 0, 0) {
			return
		}
	}
	t.Fatal("forward and reverse links always agree — linkKey is symmetric")
}

func TestLinkSlowFactorDefaultsAndSticksPerRound(t *testing.T) {
	inj := NewInjector(Config{Seed: 11, Schedule: []Window{{Kind: KindLinkSlow, Prob: 0.5}}}) // factor unset → 8
	sawSlow := false
	for l := 0; l < 100; l++ {
		f := linkSlow(inj, l, l+1, 2)
		if f != 1 && f != 8 {
			t.Fatalf("Link.Slow returned %v; want 1 or the default 8", f)
		}
		if f != linkSlow(inj, l, l+1, 2) {
			t.Fatal("Link.Slow not stable within a round")
		}
		if f > 1 {
			sawSlow = true
		}
	}
	if !sawSlow {
		t.Fatal("no slow link in 100 draws at p=0.5")
	}
}

func TestPartitionStableCutAndDuration(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, PartitionRounds: 3, Schedule: []Window{{Kind: KindPartition, Prob: 0.2}}})

	foundStart := -1
	for r := 0; r < 50; r++ {
		if start, ok := inj.PartitionAt(r); ok && start == r {
			foundStart = r
			break
		}
	}
	if foundStart < 0 {
		t.Fatal("no partition started in 50 rounds at p=0.2")
	}
	// The partition stays active, with the same start, for its duration.
	for r := foundStart; r < foundStart+3; r++ {
		start, ok := inj.PartitionAt(r)
		if !ok {
			t.Fatalf("partition inactive at round %d inside [%d,%d)", r, foundStart, foundStart+3)
		}
		if start > r || start <= r-3 {
			t.Fatalf("PartitionAt(%d) start %d outside the 3-round window", r, start)
		}
	}
	// Sides are stable for the whole partition and both endpoints agree.
	for w := 0; w < 16; w++ {
		s := inj.PartitionSide(w, foundStart)
		if s != 0 && s != 1 {
			t.Fatalf("PartitionSide(%d) = %d; want 0 or 1", w, s)
		}
		if s != inj.PartitionSide(w, foundStart) {
			t.Fatal("PartitionSide not deterministic")
		}
	}
	// LinkCut severs exactly the cross-side links.
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			want := inj.PartitionSide(src, foundStart) != inj.PartitionSide(dst, foundStart)
			if got := inj.LinkCut(src, dst, foundStart); got != want {
				t.Fatalf("LinkCut(%d,%d) = %v; want %v", src, dst, got, want)
			}
		}
	}
}

func TestNilInjectorLinkMethods(t *testing.T) {
	var inj *Injector
	if linkDrops(inj, 0, 1, 0, 0, 0) {
		t.Fatal("nil injector drops")
	}
	if f := linkSlow(inj, 0, 1, 0); f != 1 {
		t.Fatalf("nil injector Link.Slow = %v; want 1", f)
	}
	if _, ok := inj.PartitionAt(0); ok {
		t.Fatal("nil injector partitions")
	}
	if inj.LinkCut(0, 1, 0) {
		t.Fatal("nil injector cuts links")
	}
}

func TestLinkConfigValidation(t *testing.T) {
	for _, w := range []Window{
		{Kind: KindLinkDrop, Prob: -0.1},
		{Kind: KindLinkSlow, Prob: 1.5},
		{Kind: KindPartition, Prob: 2},
		{Kind: KindPartition, Prob: 0.1, Factor: 2},
	} {
		if err := (Config{Schedule: []Window{w}}).Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", w)
		}
	}
	c := LinkRate(1, 0.2)
	if err := c.Validate(); err != nil {
		t.Fatalf("LinkRate config rejected: %v", err)
	}
	if len(c.Schedule) != 3 {
		t.Fatalf("LinkRate built %d windows, want drop, slow and partition", len(c.Schedule))
	}
}

// oracleUnit, oracleChance, oracleLinkDrops and oracleLinkSlow are the
// per-call draws as they were before Link resolved a round's draws once:
// five straight mixes per draw, and the schedule looked up again for every
// attempt.
func oracleUnit(i *Injector, kind Kind, worker, step, attempt int) float64 {
	h := splitmix64(uint64(i.cfg.Seed))
	h = splitmix64(h ^ uint64(kind))
	h = splitmix64(h ^ uint64(int64(worker)))
	h = splitmix64(h ^ uint64(int64(step)))
	h = splitmix64(h ^ uint64(int64(attempt)))
	return float64(h>>11) / float64(1<<53)
}

func oracleChance(i *Injector, kind Kind, worker, step, attempt int, p float64) bool {
	if i == nil || p <= 0 {
		return false
	}
	return oracleUnit(i, kind, worker, step, attempt) < p
}

func oracleLinkDrops(i *Injector, src, dst, round, hopSeq, attempt int) bool {
	if i == nil {
		return false
	}
	p, _ := i.resolve(KindLinkDrop, src, i.now())
	return oracleChance(i, KindLinkDrop, linkKey(src, dst), round, hopSeq*1024+attempt, p)
}

func oracleLinkSlow(i *Injector, src, dst, round int) float64 {
	if i == nil {
		return 1
	}
	p, f := i.resolve(KindLinkSlow, src, i.now())
	if !oracleChance(i, KindLinkSlow, linkKey(src, dst), round, 0, p) {
		return 1
	}
	if f <= 1 {
		return 8
	}
	return f
}

// Link resolves a round's draws once; every Slow and Drops it answers must
// equal the per-call formulas, by bits, across links, rounds, hop sequence
// numbers, attempts up to 64, always-on windows, windows keyed by worker
// lists, clocks inside, outside and absent, a nil injector, and link-slow
// factors at or below 1 (which default to 8).
func TestLinkMatchesPerCallDraws(t *testing.T) {
	windows := []Window{
		{Kind: KindLinkDrop, Workers: []int{1, 3, 255}, StartS: 10, EndS: 20, Prob: 0.4},
		{Kind: KindLinkDrop, StartS: 15, EndS: 30, Prob: 0.2},
		{Kind: KindLinkSlow, Workers: []int{0, 3}, StartS: 5, EndS: 18, Prob: 0.6, Factor: 4},
		{Kind: KindLinkSlow, Workers: []int{2}, StartS: 12, Prob: 1},
	}
	linkCfg := func(seed int64, drop, slow, factor float64) Config {
		c := Config{Seed: seed, Schedule: []Window{{Kind: KindLinkSlow, Prob: slow, Factor: factor}}}
		if drop > 0 {
			c.Schedule = append(c.Schedule, Window{Kind: KindLinkDrop, Prob: drop})
		}
		return c
	}
	configs := map[string]Config{
		"rate":            LinkRate(42, 0.3),
		"certain":         linkCfg(-7, 1, 1, 3),
		"factor-below-1":  linkCfg(5, 0.5, 0.5, 0.5),
		"factor-exactly1": linkCfg(6, 0, 0.5, 1),
		"windows":         {Seed: 9, Schedule: windows},
		"zero":            {Seed: 11},
	}
	links := [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 0}, {3, 255}, {255, 3}, {7, 7}, {1000, 2}}
	rounds := []int{0, 1, 7, 300}
	seqs := []int{0, 1, 5, 1<<12 + 3}
	drops, slows := map[bool]int{}, map[float64]int{}
	check := func(t *testing.T, inj *Injector) {
		t.Helper()
		for _, lk := range links {
			for _, round := range rounds {
				src, dst := lk[0], lk[1]
				l := inj.Link(src, dst, round)
				if got, want := l.Slow(), oracleLinkSlow(inj, src, dst, round); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Link(%d,%d,%d).Slow() = %v, per-call draw %v", src, dst, round, got, want)
				}
				slows[l.Slow()]++
				for _, seq := range seqs {
					for attempt := 0; attempt <= 64; attempt++ {
						got := l.Drops(seq, attempt)
						if want := oracleLinkDrops(inj, src, dst, round, seq, attempt); got != want {
							t.Fatalf("Link(%d,%d,%d).Drops(%d,%d) = %v, per-call draw %v", src, dst, round, seq, attempt, got, want)
						}
						drops[got]++
					}
				}
			}
		}
	}
	t.Run("nil", func(t *testing.T) { check(t, nil) })
	for name, cfg := range configs {
		t.Run(name+"/no-clock", func(t *testing.T) { check(t, NewInjector(cfg)) })
		for _, now := range []float64{0, 7, 12, 16, 19.5, 25, 40} {
			t.Run(fmt.Sprintf("%s/t=%g", name, now), func(t *testing.T) {
				inj := NewInjector(cfg)
				inj.SetClock(&fixedClock{t: now})
				check(t, inj)
			})
		}
	}
	// The sweep must reach both drop outcomes and every slow multiplier
	// the configs can produce: 1, the default 8, and the factors 3 and 4.
	if drops[true] == 0 || drops[false] == 0 {
		t.Fatalf("drop outcomes seen: %v; want both", drops)
	}
	for _, f := range []float64{1, 3, 4, 8} {
		if slows[f] == 0 {
			t.Fatalf("slow multiplier %v never drawn (seen %v)", f, slows)
		}
	}
}

// unit is prefix plus one finishing mix; it must equal the five straight
// mixes it replaced, so Chance, Exp and every other draw keep their values.
func TestUnitMatchesStraightMixes(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
		inj := NewInjector(Config{Seed: seed})
		for kind := Kind(0); kind <= kindEnd+1; kind++ {
			for _, worker := range []int{-1, 0, 3, 1 << 20, math.MinInt} {
				for _, step := range []int{-5, 0, 1, 999, math.MaxInt} {
					for _, attempt := range []int{-1, 0, 1, 63, 64, 1<<12 + 64} {
						got, want := inj.unit(kind, worker, step, attempt), oracleUnit(inj, kind, worker, step, attempt)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("unit(seed %d, %v, %d, %d, %d) = %v, straight mixes %v", seed, kind, worker, step, attempt, got, want)
						}
					}
				}
			}
		}
	}
}

// unmix inverts splitmix64, so a test can pick the 53 bits a draw yields
// and build the prefix that yields them.
func unmix(h uint64) uint64 {
	inverse := func(c uint64) uint64 { // c odd: Newton's iteration mod 2⁶⁴
		v := c
		for range 5 {
			v *= 2 - c*v
		}
		return v
	}
	h ^= h>>31 ^ h>>62
	h *= inverse(0x94d049bb133111eb)
	h ^= h>>27 ^ h>>54
	h *= inverse(0xbf58476d1ce4e5b9)
	h ^= h>>30 ^ h>>60
	return h - 0x9e3779b97f4a7c15
}

// Drops compares a draw's 53 bits against the integer threshold; it must
// answer the float rule finish(prefix, k) < dropP on every probability,
// including 0, subnormals, 1 − 2⁻⁵³, 1, above 1, +Inf and NaN. Each case
// places draws on both sides of the threshold, at 0 and at 2⁵³ − 1, and
// on a seeded sweep.
func TestDropsMatchesFloatRule(t *testing.T) {
	const top = 1<<53 - 1
	if splitmix64(unmix(0x0123456789abcdef)) != 0x0123456789abcdef {
		t.Fatal("unmix does not invert splitmix64")
	}
	probs := []float64{0, 5e-324, 1e-300, 0.12, 0.5, 1 - 0x1p-53, 1, 2, math.Inf(1), math.NaN()}
	rng := uint64(1)
	for _, p := range probs {
		thr := dropThreshold(p)
		draws := []uint64{0, 1, top - 1, top}
		if thr > 0 && thr <= top {
			draws = append(draws, thr-1, thr)
		}
		if thr < top {
			draws = append(draws, thr+1)
		}
		for range 2000 {
			rng = splitmix64(rng)
			draws = append(draws, rng>>11)
		}
		fired, held := 0, 0
		for i, u := range draws {
			hopSeq, attempt := i%7, i%5
			k := hopSeq*1024 + attempt
			prefix := unmix(u<<11|uint64(i)&0x7ff) ^ uint64(int64(k))
			l := Link{drop: thr, prefix: prefix}
			got, want := l.Drops(hopSeq, attempt), finish(prefix, k) < p
			if got != want {
				t.Fatalf("dropP %v (threshold %d), draw %d: Drops %v, float rule %v", p, thr, u, got, want)
			}
			if got {
				fired++
			} else {
				held++
			}
		}
		// Each probability strictly inside (0, 1) has draws on both sides.
		if p > 0 && p < 1 && (fired == 0 || held == 0) {
			t.Fatalf("dropP %v: %d fired, %d held; want both", p, fired, held)
		}
	}
}
