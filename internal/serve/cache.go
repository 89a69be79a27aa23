package serve

// Hot-key result cache. Serving traffic is heavily key-skewed (a few
// prompts, a few feature vectors dominate); a small LRU of recently served
// keys with a staleness bound absorbs the hottest keys before they reach
// the queue, which both cuts latency for the common case and removes load
// exactly where the Zipf head concentrates it. A key enters when a replica
// serves it, and a hit serves the request at once. The LRU lives in a
// fixed array of slots linked in recency order by index, found through a
// dense key→slot table (keys lie in [0, fleetKeys)), so it allocates
// nothing after construction.

// CacheConfig tunes the fleet's hot-key result cache.
type CacheConfig struct {
	// Disabled turns the cache off (every request hits the queue).
	Disabled bool
}

// The cache's fixed policy: the most keys it holds, and the staleness
// bound in deadlines (DeadlineS) after which an entry is a miss and is
// evicted on contact.
const (
	cacheCapacity = 256
	cacheTTL      = 50
)

// cacheSlot is one cache entry and its recency links: slot indices, -1 at
// either end. A free slot is chained to the next free one through next.
type cacheSlot struct {
	key        int
	expires    float64
	prev, next int
}

// resultCache is a TTL'd LRU of request keys.
type resultCache struct {
	ttl        float64
	slots      []cacheSlot
	slotOf     []int // key → slot index + 1; 0 when the key is absent
	head, tail int   // most and least recently used slots, -1 when empty
	free       int   // first free slot, -1 when full
}

// newResultCache builds an empty cache of capacity slots whose entries
// live ttl seconds, for keys in [0, keys).
func newResultCache(capacity int, ttl float64, keys int) *resultCache {
	c := &resultCache{
		ttl:    ttl,
		slots:  make([]cacheSlot, capacity),
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

// get reports whether key is present and fresh, promoting it to
// most-recently-used. Expired entries are evicted.
func (c *resultCache) get(key int, now float64) bool {
	i := c.slotOf[key] - 1
	if i < 0 {
		return false
	}
	s := &c.slots[i]
	if now >= s.expires {
		c.unlink(i)
		c.slotOf[key] = 0
		s.next = c.free
		c.free = i
		return false
	}
	c.unlink(i)
	c.pushFront(i)
	return true
}

// put inserts (or refreshes) the key, evicting the least-recently-used
// entry when full.
func (c *resultCache) put(key int, now float64) {
	i := c.slotOf[key] - 1
	switch {
	case i >= 0:
		c.unlink(i)
	case c.free >= 0:
		i = c.free
		c.free = c.slots[i].next
	default:
		i = c.tail
		c.unlink(i)
		c.slotOf[c.slots[i].key] = 0
	}
	c.slots[i] = cacheSlot{key: key, expires: now + c.ttl}
	c.slotOf[key] = i + 1
	c.pushFront(i)
}
