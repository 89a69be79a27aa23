package distributed

import (
	"math"
	"math/bits"
	"slices"

	"dlsys/internal/device"
	"dlsys/internal/fault"
)

// Topology selects the collective communication pattern used for averaging
// rounds. The zero value (TopoDefault) keeps the historical parameter-server
// star bit-for-bit; the explicit topologies replace the star with a
// reduce-broadcast collective whose per-hop costs are priced by
// device.TransferTime and charged to the simulated clock, so time-per-round
// scales with worker count the way the real pattern does instead of O(n²).
// Every topology runs the same sync and average rounds; only exchange and
// release, at the end of this file, differ.
type Topology string

const (
	// TopoDefault is the historical parameter-server star: every worker
	// uploads to a central server which broadcasts the aggregate back.
	TopoDefault Topology = ""
	// TopoAllToAll is the full mesh: m-1 serialized phases in which every
	// member exchanges the whole payload with one peer. O(n) phases of
	// O(n) concurrent full-payload hops — the baseline the scalable
	// topologies beat, and the maximally-connected fallback they degrade
	// to when healing cannot preserve quorum.
	TopoAllToAll Topology = "all-to-all"
	// TopoRing is ring all-reduce: 2(m-1) phases in which each member
	// passes a 1/m segment to its successor (reduce-scatter, then
	// all-gather). Per-member traffic is independent of m.
	TopoRing Topology = "ring"
	// TopoTree is a binary-tree reduce then broadcast: 2·depth phases of
	// full-payload hops, the latency-optimal pattern for small payloads.
	TopoTree Topology = "tree"
	// TopoHier is the two-level hierarchy: ring all-reduce inside fixed
	// groups, tree reduce-broadcast across group leaders, then a binomial
	// broadcast back inside each group. GroupSize picks the group width
	// (default ceil(sqrt(m))).
	TopoHier Topology = "hier"
)

// Topologies lists the explicit collective topologies (not TopoDefault), in
// the order experiments sweep them.
func Topologies() []Topology {
	return []Topology{TopoAllToAll, TopoRing, TopoTree, TopoHier}
}

func (t Topology) valid() bool {
	switch t {
	case TopoDefault, TopoAllToAll, TopoRing, TopoTree, TopoHier:
		return true
	}
	return false
}

// ChurnEvent schedules one elastic-membership transition: at the start of
// Round, Worker joins (catching up from the newest CRC-valid snapshot) or
// leaves the run. A worker whose earliest event is a join starts the run
// absent. Config.Validate rejects out-of-range workers, duplicate events,
// and inconsistent sequences (joining while present, leaving while absent).
type ChurnEvent struct {
	Round  int
	Worker int
	Join   bool
}

// hop is one directed transfer inside a collective phase.
type hop struct {
	src, dst int
	bytes    int64
}

// degradeSalt offsets the phase sequence numbers of the all-to-all fallback
// walk, so its per-hop fault draws are independent of the failed primary
// walk's (otherwise the same dead links would kill the fallback too).
const degradeSalt = 1 << 12

func ceilDiv(a int64, b int) int64 {
	if b <= 0 {
		return a
	}
	return (a + int64(b) - 1) / int64(b)
}

// heapDepth is the depth of index i in a 0-based binary heap.
func heapDepth(i int) int { return bits.Len(uint(i+1)) - 1 }

// hierGroupSize resolves the intra-group width for TopoHier: the configured
// size clamped to the member count, defaulting to ceil(sqrt(m)) (minimum 2).
func hierGroupSize(groupSize, m int) int {
	gs := groupSize
	if gs < 2 {
		gs = int(math.Ceil(math.Sqrt(float64(m))))
		if gs < 2 {
			gs = 2
		}
	}
	if gs > m {
		gs = m
	}
	return gs
}

// phaseHops enumerates the collective's phases over the live members
// (ascending worker ids), calling visit once per phase with that phase's
// concurrent hops. seq numbers the phases so per-hop fault draws are unique
// across the round. Every phase's hops live in buf, which phaseHops
// returns, grown, for the next call to reuse, so visit must neither keep
// nor modify them.
func phaseHops(kind Topology, members []int, payload int64, groupSize int, buf []hop, visit func(seq int, hops []hop)) []hop {
	m := len(members)
	if m < 2 {
		return buf
	}
	seq := 0
	buf = buf[:0]
	emit := func() {
		visit(seq, buf)
		seq++
		buf = buf[:0]
	}
	switch kind {
	case TopoAllToAll:
		// Phase p: member i exchanges the full payload with member i+p.
		for p := 1; p < m; p++ {
			for i := 0; i < m; i++ {
				buf = append(buf, hop{members[i], members[(i+p)%m], payload})
			}
			emit()
		}
	case TopoRing:
		// Reduce-scatter then all-gather: 2(m-1) phases, each member
		// passing a 1/m segment to its successor. Every phase has the
		// same hops, so the list is built once.
		seg := ceilDiv(payload, m)
		for i := 0; i < m; i++ {
			buf = append(buf, hop{members[i], members[(i+1)%m], seg})
		}
		for ; seq < 2*(m-1); seq++ {
			visit(seq, buf)
		}
	case TopoTree:
		// Heap-indexed binary tree over the members array: reduce from the
		// deepest level up to the root, then broadcast back down.
		maxD := heapDepth(m - 1)
		for d := maxD; d >= 1; d-- {
			for i := 1; i < m; i++ {
				if heapDepth(i) == d {
					buf = append(buf, hop{members[i], members[(i-1)/2], payload})
				}
			}
			emit()
		}
		for d := 1; d <= maxD; d++ {
			for i := 1; i < m; i++ {
				if heapDepth(i) == d {
					buf = append(buf, hop{members[(i-1)/2], members[i], payload})
				}
			}
			emit()
		}
	case TopoHier:
		gs := hierGroupSize(groupSize, m)
		var groups [][]int
		for i := 0; i < m; i += gs {
			end := i + gs
			if end > m {
				end = m
			}
			groups = append(groups, members[i:end])
		}
		maxGs := gs
		// Intra-group ring all-reduce; groups run concurrently, phases
		// aligned across groups.
		for s := 0; s < 2*(maxGs-1); s++ {
			for _, g := range groups {
				if s >= 2*(len(g)-1) {
					continue
				}
				seg := ceilDiv(payload, len(g))
				for i := range g {
					buf = append(buf, hop{g[i], g[(i+1)%len(g)], seg})
				}
			}
			emit()
		}
		// Tree reduce-broadcast over group leaders.
		leaders := make([]int, len(groups))
		for i, g := range groups {
			leaders[i] = g[0]
		}
		k := len(leaders)
		if k >= 2 {
			maxD := heapDepth(k - 1)
			for d := maxD; d >= 1; d-- {
				for i := 1; i < k; i++ {
					if heapDepth(i) == d {
						buf = append(buf, hop{leaders[i], leaders[(i-1)/2], payload})
					}
				}
				emit()
			}
			for d := 1; d <= maxD; d++ {
				for i := 1; i < k; i++ {
					if heapDepth(i) == d {
						buf = append(buf, hop{leaders[(i-1)/2], leaders[i], payload})
					}
				}
				emit()
			}
		}
		// Binomial broadcast from each leader back into its group.
		for s := 0; 1<<s < maxGs; s++ {
			for _, g := range groups {
				lo, hi := 1<<s, 2<<s
				if hi > len(g) {
					hi = len(g)
				}
				for r := lo; r < hi; r++ {
					buf = append(buf, hop{g[r-1<<s], g[r], payload})
				}
			}
			emit()
		}
	}
	return buf
}

// hop prices one topology hop over its resolved link l: slow-link latency
// multiplication of the unslowed wire time, per-attempt link-drop retries
// with exponential backoff, and — once the retry budget exhausts — a
// single healing reroute around the dead link (the ring skips to the next
// live peer, the tree re-parents under the grandparent), modelled as one
// relayed attempt at twice the wire time. It tallies into stats only;
// walk mirrors the tallies into obs. Returns whether the payload
// ultimately got through and the simulated seconds spent.
func (t *transport) hop(l *fault.Link, wire float64, bytes int64, seq int, stats *Stats) (bool, float64) {
	slow := l.Slow()
	if slow > 1 {
		stats.LinkSlowHops++
	}
	base := wire * slow
	var elapsed float64
	for attempt := 0; attempt < t.maxRetries; attempt++ {
		if attempt > 0 {
			stats.Retransmissions++
			elapsed += t.backoffS * float64(int64(1)<<(attempt-1))
		}
		stats.BytesSent += bytes
		elapsed += base
		if l.Drops(seq, attempt) {
			stats.LinkDropped++
			continue
		}
		return true, elapsed
	}
	stats.BytesSent += 2 * bytes
	elapsed += 2 * base
	if !l.Drops(seq, t.maxRetries) {
		stats.TopoHeals++
		return true, elapsed
	}
	stats.LinkDropped++
	return false, elapsed
}

// walkLink is one hop position's resolved link, for the directed pair it
// was resolved for.
type walkLink struct {
	src, dst int
	link     fault.Link
}

// wireTime is device.TransferTime for one payload size.
type wireTime struct {
	bytes int64
	s     float64
}

// link returns the resolved link for the pos-th hop of a phase, reusing
// the one an earlier phase of the walk resolved at that position when its
// (src, dst) matches. Every ring phase, and every intra-group ring phase
// of hier, repeats the same hop list, so those walks resolve each link
// once. Reuse is sound only inside one walk, which runs at one clock
// instant in one round.
func (t *transport) link(pos, src, dst, round int) *fault.Link {
	if pos == len(t.links) {
		t.links = append(t.links, walkLink{src: src, dst: dst, link: t.inj.Link(src, dst, round)})
	} else if w := &t.links[pos]; w.src != src || w.dst != dst {
		*w = walkLink{src: src, dst: dst, link: t.inj.Link(src, dst, round)}
	}
	return &t.links[pos].link
}

// wire returns the hop transfer time for a payload of bytes, priced once
// per distinct size in a walk.
func (t *transport) wire(bytes int64) float64 {
	for _, w := range t.wires {
		if w.bytes == bytes {
			return w.s
		}
	}
	s := device.TransferTime(t.prof, t.prof, bytes)
	t.wires = append(t.wires, wireTime{bytes, s})
	return s
}

// walk prices one traversal of the topology's phases over the live members,
// returning the members whose contribution dead links lost plus the
// simulated seconds elapsed. Hops within a phase run concurrently (the
// phase costs its slowest hop); phases serialize. Each link's draws are
// resolved once per walk, and the per-hop Stats tallies reach obs once,
// when the walk ends.
func (t *transport) walk(kind Topology, live []int, payload int64, round, groupSize, salt int, stats *Stats) (map[int]bool, float64) {
	lost := make(map[int]bool)
	failed := make(map[int]int)
	t.links, t.wires = t.links[:0], t.wires[:0]
	sent, slow, retrans, dropped, heals := stats.BytesSent, stats.LinkSlowHops, stats.Retransmissions, stats.LinkDropped, stats.TopoHeals
	var total float64
	t.hops = phaseHops(kind, live, payload, groupSize, t.hops, func(seq int, hops []hop) {
		var phaseS float64
		for pos, h := range hops {
			ok, s := t.hop(t.link(pos, h.src, h.dst, round), t.wire(h.bytes), h.bytes, salt+seq, stats)
			if s > phaseS {
				phaseS = s
			}
			if ok {
				continue
			}
			if kind == TopoAllToAll {
				// Full mesh: one dead edge only loses one peer's copy; the
				// contribution is lost only when most peers never got it.
				failed[h.src]++
				if 2*failed[h.src] > len(live)-1 {
					lost[h.src] = true
				}
			} else {
				lost[h.src] = true
			}
		}
		total += phaseS
	})
	t.obs.bytesSent.Add(stats.BytesSent - sent)
	t.obs.linkSlowHops.Add(int64(stats.LinkSlowHops - slow))
	t.obs.retrans.Add(int64(stats.Retransmissions - retrans))
	t.obs.linkDropped.Add(int64(stats.LinkDropped - dropped))
	t.obs.topoHeals.Add(int64(stats.TopoHeals - heals))
	return lost, total
}

// collective executes one reduce-broadcast of payload bytes over the
// topology spanning members (ascending worker ids). It prices every
// phase on the simulated clock, heals around dead links, excludes members a
// partition or unhealable link cut off, and — when healing would leave
// fewer than half the members contributing (the convergence invariant) —
// degrades the whole round to the all-to-all fallback. Returns the members
// whose contribution was excluded, the simulated seconds elapsed, and
// whether the round degraded.
func (t *transport) collective(kind Topology, members []int, payload int64, round, groupSize int, stats *Stats) (excluded map[int]bool, elapsed float64, degraded bool) {
	excluded = make(map[int]bool)
	if len(members) < 2 {
		return excluded, 0, false
	}
	live := members
	var cut []int
	if start, ok := t.inj.PartitionAt(round); ok {
		var side0, side1 []int
		for _, w := range members {
			if t.inj.PartitionSide(w, start) == 0 {
				side0 = append(side0, w)
			} else {
				side1 = append(side1, w)
			}
		}
		maj, min := side0, side1
		if len(side1) > len(side0) {
			maj, min = side1, side0
		}
		if len(min) > 0 {
			live, cut = maj, min
			stats.PartitionedRounds++
			t.obs.partRounds.Inc()
			// The topology heals around the unreachable side: the ring
			// skips to the next live peer, the tree re-parents orphaned
			// subtrees onto the majority. All-to-all has no rerouting to
			// do — the cut members are simply unreachable there too.
			if kind != TopoAllToAll {
				stats.TopoHeals += len(min)
				t.obs.topoHeals.Add(int64(len(min)))
			}
			for _, w := range min {
				excluded[w] = true
			}
		}
	}
	if len(live) >= 2 {
		lost, s := t.walk(kind, live, payload, round, groupSize, 0, stats)
		elapsed += s
		for w := range lost {
			excluded[w] = true
		}
		// Convergence invariant: at least half the members must contribute
		// to the aggregate. When healing could not preserve that quorum,
		// the round re-runs over the maximally-connected all-to-all mesh,
		// which tolerates individual dead links.
		if kind != TopoAllToAll && 2*(len(members)-len(excluded)) < len(members) {
			degraded = true
			stats.TopoDegraded++
			t.obs.topoDegraded.Inc()
			lost2, s2 := t.walk(TopoAllToAll, live, payload, round, groupSize, degradeSalt, stats)
			elapsed += s2
			excluded = make(map[int]bool)
			for _, w := range cut {
				excluded[w] = true
			}
			for w := range lost2 {
				excluded[w] = true
			}
		}
	}
	stats.LinkExcluded += len(excluded)
	t.obs.linkExcluded.Add(int64(len(excluded)))
	return excluded, elapsed, degraded
}

// upload is one contributor's message into a round's aggregate, sized in
// wire bytes.
type upload struct {
	wk    *worker
	bytes int64
}

// exchange moves one round's uploads toward the aggregate over the
// configured topology, returning the ids whose contribution was lost and
// the simulated seconds it took. Under the parameter-server star
// (TopoDefault) each contributor sends its own wire size through
// transport.send, and an upload that exhausts its retries times out. A
// collective instead prices one reduce-broadcast of payload bytes across
// every member, counting CommRounds and CommSeconds, and loses the
// contributions of members a partition or unhealable link cut off.
func (j *Job) exchange(members []*worker, ups []upload, payload int64, round int) (map[int]bool, float64) {
	stats := &j.stats
	if j.cfg.Topology == TopoDefault {
		lost := make(map[int]bool)
		var upS float64
		for _, u := range ups {
			ok, s := j.net.send(u.wk.id, 2*round, u.bytes, stats)
			upS = max(upS, s)
			if !ok {
				stats.Timeouts++
				j.ins.timeouts.Inc()
				lost[u.wk.id] = true
			}
		}
		return lost, upS
	}
	ids := make([]int, len(members))
	for i, wk := range members {
		ids[i] = wk.id
	}
	lost, commS, _ := j.net.collective(j.cfg.Topology, ids, payload, round, j.cfg.GroupSize, stats)
	stats.CommRounds++
	j.ins.commRounds.Inc()
	stats.CommSeconds += commS
	return lost, commS
}

// release ships the aggregate back to every member once it exists,
// advancing the clock by the time that took. The star's server broadcasts
// bytes to each member and persists until delivery; a collective's
// reduce-broadcast already carried the aggregate, so it has nothing left to
// send.
func (j *Job) release(members []*worker, bytes int64, round int) float64 {
	if j.cfg.Topology != TopoDefault {
		return 0
	}
	var downS float64
	for _, wk := range members {
		j.stats.BytesSent += bytes
		j.ins.bytesSent.Add(bytes)
		_, s := j.net.broadcast(wk.id, 2*round+1, bytes, &j.stats)
		downS = max(downS, s)
	}
	j.clk.advance(downS)
	return downS
}

// trackMembership opens a membership epoch whenever the active member set
// changes: the collective topology is rebuilt over the new set. Tracked
// only when a collective or churn is in play, so a static star run leaves
// every topology counter at zero.
func (j *Job) trackMembership(active []*worker) {
	if j.cfg.Topology == TopoDefault && len(j.churn) == 0 {
		return
	}
	ids := make([]int, len(active))
	for i, wk := range active {
		ids[i] = wk.id
	}
	if !slices.Equal(ids, j.lastMembers) {
		j.stats.MembershipEpochs++
		j.ins.epochs.Inc()
		j.lastMembers = ids
	}
}
