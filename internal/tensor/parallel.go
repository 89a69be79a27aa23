package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFLOPThreshold is the multiply-add count below which parallelism
// costs more than it saves, even with the persistent pool.
const parallelFLOPThreshold = 1 << 20 // ~1M fused ops

// The persistent worker pool, and the repository's one fan-out primitive:
// no other non-test code under internal/ starts a goroutine. Workers are
// spawned lazily up to GOMAXPROCS-1 (the submitting goroutine always
// participates, so the pool only ever needs helpers) and then parked on
// the task channel for the life of the process — the per-call goroutine
// spawn and its scheduler churn are gone from the hot paths. Tasks are
// self-scheduling: each submitted helper drains chunks from a shared
// atomic counter, so an idle worker steals whatever chunks a slow one has
// not claimed yet. Chunk boundaries depend only on the row count and
// worker target, and every output row is written by exactly one task, so
// results are deterministic regardless of which worker runs which chunk.
var (
	poolTasks = make(chan func(), 256)
	poolMu    sync.Mutex
	poolSize  int
)

// poolEnsure grows the pool to at least n parked workers.
func poolEnsure(n int) {
	if n <= 0 {
		return
	}
	poolMu.Lock()
	for ; poolSize < n; poolSize++ {
		go func() {
			for f := range poolTasks {
				f()
			}
		}()
	}
	poolMu.Unlock()
}

// ParallelFor splits [0, m) into at most GOMAXPROCS contiguous chunks and
// runs fn on each, using the persistent pool, and returns once every chunk
// has run. At GOMAXPROCS 1, or when m is smaller than the worker target,
// it calls fn(0, m) inline: spawning cannot pay for itself on fewer rows
// than workers. fn may run on several goroutines at once, so chunks must
// write disjoint state; fn may itself call ParallelFor.
func ParallelFor(m int, fn func(lo, hi int)) { parallelRowsAligned(m, 1, fn) }

// parallelRowsAligned is ParallelFor with chunk boundaries rounded up to a
// multiple of align (except the final chunk), so blocked kernels keep full
// micro-tiles inside one chunk. Chunk count is capped at the worker target
// (GOMAXPROCS), and the caller always executes chunks alongside the pool.
// The caller waits only for chunks a goroutine has claimed, each of which
// that goroutine is running, never for a queued task: when every pool
// worker is busy — including the nested case where fn itself reaches this
// function — the caller drains the whole range itself, and a task that
// runs later finds no chunk left. So the pool cannot deadlock.
func parallelRowsAligned(m, align int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || m < workers || m < align*2 {
		if m > 0 {
			fn(0, m)
		}
		return
	}
	chunk := (m + workers - 1) / workers
	if r := chunk % align; r != 0 {
		chunk += align - r
	}
	nchunks := (m + chunk - 1) / chunk
	if nchunks <= 1 {
		fn(0, m)
		return
	}
	poolEnsure(workers - 1)

	var next atomic.Int64
	var done sync.WaitGroup
	done.Add(nchunks)
	work := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= nchunks {
				return
			}
			lo := c * chunk
			fn(lo, min(lo+chunk, m))
			done.Done()
		}
	}
submit:
	for i := 0; i < nchunks-1; i++ {
		select {
		case poolTasks <- work:
		default:
			break submit
		}
	}
	work()
	done.Wait()
}
