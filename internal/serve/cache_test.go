package serve

import (
	"container/list"
	"math/rand"
	"testing"
)

// listCache is the result cache as a map plus container/list — the
// straightforward LRU the slot-array cache must behave exactly like.
type listCache struct {
	capacity int
	ttl      float64
	order    *list.List // front = most recently used
	byKey    map[int]*list.Element
}

type listEntry struct {
	key     int
	expires float64
}

func newListCache(capacity int, ttl float64) *listCache {
	return &listCache{capacity: capacity, ttl: ttl, order: list.New(), byKey: map[int]*list.Element{}}
}

func (c *listCache) get(key int, now float64) bool {
	el, ok := c.byKey[key]
	if !ok {
		return false
	}
	ent := el.Value.(*listEntry)
	if now >= ent.expires {
		c.order.Remove(el)
		delete(c.byKey, key)
		return false
	}
	c.order.MoveToFront(el)
	return true
}

func (c *listCache) put(key int, now float64) {
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*listEntry)
		ent.expires = now + c.ttl
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*listEntry).key)
	}
	c.byKey[key] = c.order.PushFront(&listEntry{key: key, expires: now + c.ttl})
}

// TestResultCacheMatchesListLRU drives the slot-array cache and the list
// model with the same seeded get/put streams. Times sit on a quarter grid
// and the TTL is a whole number of steps, so gets land exactly on an
// entry's expiry instant; the clock mostly advances but sometimes steps
// back, as stamps overtaken on a shared kernel do.
func TestResultCacheMatchesListLRU(t *testing.T) {
	const ttl = 2.0
	for _, capacity := range []int{1, 2, 256} {
		keys := 3 * capacity
		if keys < 8 {
			keys = 8
		}
		var atExpiry, refreshes, evictions int
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got := newResultCache(capacity, ttl, keys)
			want := newListCache(capacity, ttl)
			now := 0.0
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(10); {
				case r < 6:
					now += 0.25 * float64(rng.Intn(3))
				case r == 6 && now >= 1:
					now -= 0.25
				}
				key := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					if el, ok := want.byKey[key]; ok && el.Value.(*listEntry).expires == now {
						atExpiry++
					}
					if g, w := got.get(key, now), want.get(key, now); g != w {
						t.Fatalf("cap %d seed %d op %d: get(%d, %g) = %v, list model %v",
							capacity, seed, op, key, now, g, w)
					}
				} else {
					if _, ok := want.byKey[key]; ok {
						refreshes++
					} else if want.order.Len() >= capacity {
						evictions++
					}
					got.put(key, now)
					want.put(key, now)
				}
				if n := entries(got); n != want.order.Len() {
					t.Fatalf("cap %d seed %d op %d: %d entries, list model %d",
						capacity, seed, op, n, want.order.Len())
				}
			}
		}
		if atExpiry == 0 || refreshes == 0 || evictions == 0 {
			t.Fatalf("cap %d: stream missed a case: %d gets at expiry, %d refreshes, %d evictions",
				capacity, atExpiry, refreshes, evictions)
		}
	}
}

// entries counts the cache's entries by walking its recency list,
// including expired entries that no get has evicted yet.
func entries(c *resultCache) int {
	n := 0
	for i := c.head; i >= 0; i = c.slots[i].next {
		n++
	}
	return n
}
