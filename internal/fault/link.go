package fault

import "math"

// Link-level fault draws: faults that live on the edges of a
// collective-communication topology rather than on whole workers. A link
// is the directed pair (src, dst); every draw is a pure splitmix64 hash of
// (seed, kind, src, dst, round), folded through the same Chance stream as
// the worker-level classes, so
//
//   - the same seed reproduces exactly the same flaky links on replay,
//   - the outcome for one hop never depends on how many other hops the
//     topology walked first (ring and tree walks can be reordered or
//     parallelised without perturbing results), and
//   - distinct hops of the same round over the same link draw
//     independently (hopSeq salts the attempt key), so a ring that
//     traverses a link 2(m-1) times sees transient, not sticky, drops.
//
// Every draw of one link in one round shares everything but the attempt
// key, so Injector.Link resolves those shared parts once into a Link.
//
// Schedule windows apply with the source worker as the window key: a
// Window{Kind: KindLinkDrop, Workers: []int{3}} degrades every link out of
// worker 3 for its duration.

// linkKey folds a directed edge into the injector's worker slot. Worker
// ids are far below 2^31, so the pairing is collision-free in practice.
func linkKey(src, dst int) int {
	return src<<20 ^ dst ^ (src >> 11)
}

// Link is one directed link's fault draws for one round, resolved by
// Injector.Link at the injector's instant: the slow multiplier, the drop
// probability as an integer threshold (dropThreshold), and the drop
// stream's hash prefix over (seed, KindLinkDrop, link, round), so each
// drop draw costs one splitmix64 and one integer compare. It stays valid
// only while the clock and the round stay where they were.
type Link struct {
	slow   float64
	drop   uint64
	prefix uint64
}

// Link resolves the directed link src→dst for the round at the injector's
// instant (schedule windows are keyed by src). A nil injector yields a
// clean link.
func (i *Injector) Link(src, dst, round int) Link {
	l := Link{slow: 1}
	if i == nil {
		return l
	}
	key := linkKey(src, dst)
	l.slow = i.scaled(KindLinkSlow, src, key, round, 8)
	p, _ := i.resolve(KindLinkDrop, src, i.now())
	if l.drop = dropThreshold(p); l.drop > 0 {
		l.prefix = i.prefix(KindLinkDrop, key, round)
	}
	return l
}

// dropThreshold is ⌈p·2⁵³⌉ clamped to [0, 2⁵³], with 0 for NaN. A draw's
// 53 hash bits u give finish's u/2⁵³ exactly, and for an integer u,
// u/2⁵³ < p holds if and only if u < ⌈p·2⁵³⌉; p·2⁵³ is exact, since
// scaling by a power of two rounds nothing short of overflow. So
// u < dropThreshold(p) is the float rule finish(prefix, k) < p, bit for
// bit, on every p: 0 where p ≤ 0 or NaN never fires, and 2⁵³ where p ≥ 1
// always does.
func dropThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Slow returns the latency multiplier for hops over the link this round:
// 1 normally, the link-slow windows' factor (default 8) when the link is
// degraded. A slow link stays slow for the whole round.
func (l *Link) Slow() float64 { return l.slow }

// Drops reports whether the attempt-th transmission over the link is
// lost, for the hopSeq-th phase of the round's collective: finish's draw,
// compared in its 53 integer bits against the threshold.
func (l *Link) Drops(hopSeq, attempt int) bool {
	return l.drop > 0 && splitmix64(l.prefix^uint64(int64(hopSeq*1024+attempt)))>>11 < l.drop
}

// PartitionRoundsLen returns how many rounds a partition lasts once begun.
func (i *Injector) PartitionRoundsLen() int {
	if i == nil || i.cfg.PartitionRounds <= 0 {
		return 3
	}
	return i.cfg.PartitionRounds
}

// PartitionAt reports whether a network bipartition is active at the round
// and, if so, the round it started. Side assignments are keyed by the
// start round (see PartitionSide), so a partition's cut is stable for its
// whole duration. When two partitions overlap the most recent start wins.
func (i *Injector) PartitionAt(round int) (start int, active bool) {
	if i == nil {
		return 0, false
	}
	dur := i.PartitionRoundsLen()
	p, _ := i.resolve(KindPartition, 0, i.now())
	for r := round; r > round-dur && r >= 0; r-- {
		if i.Chance(KindPartition, 0, r, 0, p) {
			return r, true
		}
	}
	return 0, false
}

// PartitionSide assigns the worker to one side (0 or 1) of the partition
// that started at the given round. The assignment is a pure hash, so both
// endpoints of a link agree on the cut without coordination.
func (i *Injector) PartitionSide(worker, start int) int {
	if i == nil {
		return 0
	}
	if i.unit(KindPartition, worker, start, 1) < 0.5 {
		return 0
	}
	return 1
}

// LinkCut reports whether the directed link src→dst crosses an active
// partition's cut at the round (and is therefore severed).
func (i *Injector) LinkCut(src, dst, round int) bool {
	start, active := i.PartitionAt(round)
	if !active {
		return false
	}
	return i.PartitionSide(src, start) != i.PartitionSide(dst, start)
}
