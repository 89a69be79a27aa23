package distributed

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dlsys/internal/device"
	"dlsys/internal/fault"
	"dlsys/internal/obs"
)

// perHopWalk prices a walk the way it was priced before the link table:
// every hop resolves its own link and its own wire time, every attempt,
// the first included, runs in one retry loop, and every attempt updates
// obs as it happens. It is the oracle transport.walk must equal.
func perHopWalk(t *transport, kind Topology, live []int, payload int64, round, salt int, stats *Stats) (map[int]bool, float64) {
	lost := make(map[int]bool)
	failed := make(map[int]int)
	var total float64
	phaseHops(kind, live, payload, nil, func(seq int, hops []hop, _ bool) {
		var phaseS float64
		for _, h := range hops {
			ok, s := perHopPrice(t, h.src, h.dst, h.bytes, round, salt+seq, stats)
			if s > phaseS {
				phaseS = s
			}
			if ok {
				continue
			}
			if kind == TopoAllToAll {
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
	return lost, total
}

func perHopPrice(t *transport, src, dst int, bytes int64, round, seq int, stats *Stats) (bool, float64) {
	l := t.inj.Link(src, dst, round)
	slow := l.Slow()
	if slow > 1 {
		stats.LinkSlowHops++
		t.obs.linkSlowHops.Inc()
	}
	base := device.TransferTime(t.prof, t.prof, bytes) * slow
	var elapsed float64
	for attempt := 0; attempt < t.maxRetries; attempt++ {
		if attempt > 0 {
			stats.Retransmissions++
			t.obs.retrans.Inc()
			elapsed += t.backoffS * float64(int64(1)<<(attempt-1))
		}
		stats.BytesSent += bytes
		t.obs.bytesSent.Add(bytes)
		elapsed += base
		if l.Drops(seq, attempt) {
			stats.LinkDropped++
			t.obs.linkDropped.Inc()
			continue
		}
		return true, elapsed
	}
	stats.BytesSent += 2 * bytes
	t.obs.bytesSent.Add(2 * bytes)
	elapsed += 2 * base
	if !l.Drops(seq, t.maxRetries) {
		stats.TopoHeals++
		t.obs.topoHeals.Inc()
		return true, elapsed
	}
	stats.LinkDropped++
	t.obs.linkDropped.Inc()
	return false, elapsed
}

// walkClock is a settable simulated clock for schedule windows.
type walkClock struct{ t float64 }

func (c *walkClock) Now() float64 { return c.t }

// The table walk must price exactly what per-hop pricing does: the same
// lost members, the same elapsed time by bits, every Stats field, and the
// same registry fingerprint. Each case walks one transport four times, at
// four rounds and four clock instants, so a table entry that outlived its
// walk or matched a link by hop position alone would show. A retry budget
// of 1 sends a dropped first attempt straight to the detour.
func TestWalkMatchesPerHopPricing(t *testing.T) {
	faults := map[string]fault.Config{
		"clean": {},
		"drop0.3": {Seed: 21, Schedule: []fault.Window{
			{Kind: fault.KindLinkDrop, Prob: 0.3}, {Kind: fault.KindLinkSlow, Prob: 0.2, Factor: 3}}},
		"drop1": {Seed: 22, Schedule: []fault.Window{{Kind: fault.KindLinkDrop, Prob: 1}}},
		"windows": {Seed: 23, Schedule: []fault.Window{
			{Kind: fault.KindLinkSlow, Workers: []int{1, 4, 7, 12}, StartS: 1, EndS: 3, Prob: 0.7, Factor: 5},
			{Kind: fault.KindLinkSlow, StartS: 2.5, EndS: 4, Prob: 0.3, Factor: 5},
			{Kind: fault.KindLinkDrop, Workers: []int{0, 2, 5}, StartS: 2, Prob: 0.4},
		}},
	}
	walks := []struct {
		round int
		now   float64
	}{{0, 0}, {1, 1.5}, {2, 2.6}, {7, 3.5}}

	var slowHops, retries, drops, heals, lostMembers int
	for fname, fc := range faults {
		for _, kind := range Topologies() {
			for _, m := range []int{2, 3, 5, 8, 13, 33} {
				for _, c := range []struct{ salt, maxRetries int }{{0, 3}, {degradeSalt, 3}, {0, 1}} {
					salt := c.salt
					name := fmt.Sprintf("%s/%s/m%d/salt%d/retries%d", fname, kind, m, salt, c.maxRetries)
					clk := &walkClock{}
					var inj *fault.Injector
					if len(fc.Schedule) > 0 {
						if err := fc.Validate(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						inj = fault.NewInjector(fc)
						inj.SetClock(clk)
					}
					table, oracle := newTestTransport(inj, c.maxRetries), newTestTransport(inj, c.maxRetries)
					hm, ho := obs.NewHandle(), obs.NewHandle()
					table.obs, oracle.obs = newDistObs(hm, 0), newDistObs(ho, 0)
					var sm, so Stats
					for _, w := range walks {
						clk.t = w.now
						lm, em := table.walk(kind, members(m), 1000, w.round, salt, &sm)
						lo, eo := perHopWalk(oracle, kind, members(m), 1000, w.round, salt, &so)
						if !reflect.DeepEqual(lm, lo) {
							t.Fatalf("%s round %d: lost %v, per-hop %v", name, w.round, lm, lo)
						}
						if math.Float64bits(em) != math.Float64bits(eo) {
							t.Fatalf("%s round %d: elapsed %v, per-hop %v", name, w.round, em, eo)
						}
						if !reflect.DeepEqual(sm, so) {
							t.Fatalf("%s round %d: stats\n%+v\nper-hop\n%+v", name, w.round, sm, so)
						}
						if fm, fo := hm.Reg.Fingerprint(), ho.Reg.Fingerprint(); fm != fo {
							t.Fatalf("%s round %d: registry fingerprint %#x, per-hop %#x", name, w.round, fm, fo)
						}
						lostMembers += len(lm)
					}
					slowHops += sm.LinkSlowHops
					retries += sm.Retransmissions
					drops += sm.LinkDropped
					heals += sm.TopoHeals
				}
			}
		}
	}
	// The sweep must reach every branch of walk and hop: slowed links,
	// drops, retries, detour heals, and members lost to dead links.
	if slowHops == 0 || retries == 0 || drops == 0 || heals == 0 || lostMembers == 0 {
		t.Fatalf("sweep too tame: %d slow hops, %d retries, %d drops, %d heals, %d lost members", slowHops, retries, drops, heals, lostMembers)
	}
}

// The link table lives on the transport, so once it has grown a walk
// allocates no more than per-hop pricing does.
func TestWalkMemoAllocatesNothingNew(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 3, Schedule: []fault.Window{
		{Kind: fault.KindLinkDrop, Prob: 0.3}, {Kind: fault.KindLinkSlow, Prob: 0.2}}})
	live := members(64)
	for _, kind := range Topologies() {
		net, oracle := newTestTransport(inj, 3), newTestTransport(inj, 3)
		var stats Stats
		net.walk(kind, live, 1000, 0, 0, &stats)
		walk := testing.AllocsPerRun(10, func() { net.walk(kind, live, 1000, 1, 0, &stats) })
		perHop := testing.AllocsPerRun(10, func() { perHopWalk(oracle, kind, live, 1000, 1, 0, &stats) })
		if walk > perHop {
			t.Fatalf("%s: the table walk allocates %v per call, per-hop pricing %v", kind, walk, perHop)
		}
	}
}
