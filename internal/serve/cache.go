package serve

// Hot-key result cache. Serving traffic is heavily key-skewed (a few
// prompts, a few feature vectors dominate); a small LRU of recent results
// with a staleness bound absorbs the hottest keys before they reach the
// queue, which both cuts latency for the common case and removes load
// exactly where the Zipf head concentrates it. Entries are inserted when a
// replica serves a key; the cached value is the model prediction the
// fleet precomputed through the batched BatMul path (tierPredictions /
// batchPredict), so a hit returns bit-identically what the replica would
// have computed. The LRU lives in a fixed array of Capacity slots linked
// in recency order by index, found through a dense key→slot table (keys
// lie in [0, Keys)), so it allocates nothing after construction.

// CacheConfig tunes the fleet's hot-key result cache.
type CacheConfig struct {
	// Disabled turns the cache off (every request hits the queue).
	Disabled bool
	// Capacity is the max cached keys (default 256).
	Capacity int
	// TTLS bounds staleness: entries older than this are misses and are
	// evicted on contact (default 50 deadlines).
	TTLS float64
}

func (c *CacheConfig) defaults(deadlineS float64) {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.TTLS <= 0 {
		c.TTLS = 50 * deadlineS
	}
}

// cacheSlot is one cache entry and its recency links: slot indices, -1 at
// either end. A free slot is chained to the next free one through next.
type cacheSlot struct {
	key, pred  int
	expires    float64
	prev, next int
}

// resultCache is a TTL'd LRU keyed by request key.
type resultCache struct {
	ttl        float64
	slots      []cacheSlot
	slotOf     []int // key → slot index + 1; 0 when the key is absent
	head, tail int   // most and least recently used slots, -1 when empty
	free       int   // first free slot, -1 when full
	n          int
}

// newResultCache builds an empty cache for keys in [0, keys).
func newResultCache(cfg CacheConfig, deadlineS float64, keys int) *resultCache {
	cfg.defaults(deadlineS)
	c := &resultCache{
		ttl:    cfg.TTLS,
		slots:  make([]cacheSlot, cfg.Capacity),
		slotOf: make([]int, keys),
		head:   -1,
		tail:   -1,
	}
	for i := range c.slots {
		c.slots[i].next = i + 1
	}
	c.slots[len(c.slots)-1].next = -1
	return c
}

// unlink takes slot i out of the recency list.
func (c *resultCache) unlink(i int) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *resultCache) pushFront(i int) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// get returns the cached prediction for key if present and fresh,
// promoting it to most-recently-used. Expired entries are evicted.
func (c *resultCache) get(key int, now float64) (int, bool) {
	i := c.slotOf[key] - 1
	if i < 0 {
		return 0, false
	}
	s := &c.slots[i]
	if now >= s.expires {
		c.unlink(i)
		c.slotOf[key] = 0
		s.next = c.free
		c.free = i
		c.n--
		return 0, false
	}
	c.unlink(i)
	c.pushFront(i)
	return s.pred, true
}

// put inserts (or refreshes) the key's result, evicting the
// least-recently-used entry when full.
func (c *resultCache) put(key, pred int, now float64) {
	i := c.slotOf[key] - 1
	switch {
	case i >= 0:
		c.unlink(i)
	case c.free >= 0:
		i = c.free
		c.free = c.slots[i].next
		c.n++
	default:
		i = c.tail
		c.unlink(i)
		c.slotOf[c.slots[i].key] = 0
	}
	c.slots[i] = cacheSlot{key: key, pred: pred, expires: now + c.ttl}
	c.slotOf[key] = i + 1
	c.pushFront(i)
}

// len reports live entries (expired ones may linger until touched).
func (c *resultCache) len() int { return c.n }
