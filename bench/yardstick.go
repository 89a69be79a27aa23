package main

import (
	"runtime"
	"time"
)

// The machine the benchmark runs on is shared, and its speed drifts with
// its neighbours' load: the same rep can take a third longer a few minutes
// later, and twice as long when the host is busiest. So every timed
// rep is bracketed by a yardstick, a fixed computation whose code never
// changes with the program, and the rep's wall is rescaled to the speed at
// which the yardstick takes yardstickRefS. A drift that slows the
// yardstick and the rep alike cancels; a change to the program does not.

// yardstickRefS is the yardstick's wall at reference speed, about its
// median (38.6 ms) on the 2-vCPU VM the bounds were calibrated on when that
// machine was quiet. Reference seconds are therefore about its quiet wall
// seconds.
const yardstickRefS = 0.040

// yardstickEvent is one pending event of the yardstick's queue.
type yardstickEvent struct {
	at float64
	id uint64
}

// yardstickState is the yardstick's working memory, allocated once, so a
// yardstick run allocates nothing and never waits on the collector.
type yardstickState struct {
	heap []yardstickEvent
	m    map[uint64]uint64
	keys []uint64
	a, b []float64
	c    []float64
	sink uint64
}

var ys = &yardstickState{
	heap: make([]yardstickEvent, 0, 512),
	m:    make(map[uint64]uint64, 4096),
	keys: make([]uint64, 4096),
	a:    make([]float64, 16*6),
	b:    make([]float64, 6*24),
	c:    make([]float64, 16*24),
}

// rescaled is wall seconds at reference speed, given the yardstick's
// seconds just before and just after.
func rescaled(wall, before, after float64) float64 {
	return wall * 2 * yardstickRefS / (before + after)
}

// settle collects garbage twice, outside any timer. Two collections empty
// every sync.Pool (the first moves pooled buffers to the victim cache, the
// second drops them), so the rep that follows starts from the same heap
// every time and its allocation repeats exactly.
func settle() {
	runtime.GC()
	runtime.GC()
}

// settledYardstick settles the heap, then runs the yardstick and returns
// its wall seconds; the rep that follows finds the heap as settle left it.
func settledYardstick() float64 {
	settle()
	start := time.Now()
	ys.run()
	return time.Since(start).Seconds()
}

// run is the fixed computation. Its mix follows the simulators' hot paths:
// a binary-heap event queue, hash-map inserts, lookups and deletes, and
// small float64 matrix products.
func (s *yardstickState) run() {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}

	// Event queue: hold 512 pending events, pop the earliest, push one.
	heap := s.heap[:0]
	push := func(e yardstickEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() yardstickEvent {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < last && heap[l].at < heap[m].at {
				m = l
			}
			if l+1 < last && heap[l+1].at < heap[m].at {
				m = l + 1
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	for i := 0; i < cap(s.heap); i++ {
		push(yardstickEvent{float64(next()>>40) * 1e-6, uint64(i)})
	}
	for i := 0; i < 240_000; i++ {
		e := pop()
		s.sink += e.id
		push(yardstickEvent{e.at + float64(next()>>44)*1e-6, e.id})
	}

	// Ledger-like map: a sliding window of 4096 live keys.
	clear(s.m)
	clear(s.keys)
	for i := 0; i < 180_000; i++ {
		k := next()
		slot := i % len(s.keys)
		if old := s.keys[slot]; old != 0 {
			s.sink += s.m[old]
			delete(s.m, old)
		}
		s.keys[slot] = k
		s.m[k] = uint64(i)
	}

	// Small dense products, the shape of a simulator MLP batch:
	// [16,6]·[6,24].
	for i := range s.a {
		s.a[i] = float64(next()>>53) / (1 << 11)
	}
	for i := range s.b {
		s.b[i] = float64(next()>>53) / (1 << 11)
	}
	for r := 0; r < 3600; r++ {
		clear(s.c)
		for i := 0; i < 16; i++ {
			for k := 0; k < 6; k++ {
				aik := s.a[i*6+k]
				for j := 0; j < 24; j++ {
					s.c[i*24+j] += aik * s.b[k*24+j]
				}
			}
		}
		s.sink += uint64(s.c[r%len(s.c)])
	}
}
