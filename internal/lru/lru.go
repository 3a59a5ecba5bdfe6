package lru

import "math"

// Cache is a fixed-capacity map with least-recently-used eviction. Both Get
// and Put count as use. The zero value is not usable; call New. Cache is not
// safe for concurrent use — callers hold their own locks (the nameserver and
// cluster clients already serialize cache access).
//
// Entries live in one slice, linked into recency order by int32 indexes,
// and freed slots are chained into a free list: once the cache is warm,
// Get and Put allocate nothing. A purge that leaves the slice mostly free
// re-packs it (see compact), so one burst's high-water mark is not held
// for the cache's lifetime.
type Cache[K comparable, V any] struct {
	capacity int
	items    map[K]int32 // key -> index into nodes
	nodes    []node[K, V]
	head     int32 // most recently used; nilNode when empty
	tail     int32 // least recently used; nilNode when empty
	free     int32 // first free slot, chained through next
	n        int   // live entries
}

// node is one slot of the arena: a live entry linked into recency order,
// or a free slot chained through next.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

const (
	nilNode = -1
	// minArena is the slot count below which a purge never re-packs: a
	// small arena costs less to keep than to rebuild.
	minArena = 64
)

// New returns an empty cache holding at most capacity entries. A capacity
// of zero or less yields a cache that stores nothing; one beyond the int32
// slot index is clamped to it.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{capacity: min(capacity, math.MaxInt32)}
	c.reset()
	return c
}

// reset empties the cache and drops its arena and map.
func (c *Cache[K, V]) reset() {
	c.items = make(map[K]int32)
	c.nodes = nil
	c.head, c.tail, c.free, c.n = nilNode, nilNode, nilNode, 0
}

// Get returns the value bound to key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if i, ok := c.items[key]; ok {
		c.moveToFront(i)
		return c.nodes[i].val, true
	}
	var zero V
	return zero, false
}

// GetBytes is Get on a string-keyed cache for a key held as bytes. The map
// index converts key without copying it, so a lookup allocates nothing and
// the caller may reuse key as soon as GetBytes returns.
func GetBytes[V any](c *Cache[string, V], key []byte) (V, bool) {
	if i, ok := c.items[string(key)]; ok {
		c.moveToFront(i)
		return c.nodes[i].val, true
	}
	var zero V
	return zero, false
}

// Put binds key to val, evicting the least recently used entry if the cache
// is full. Rebinding an existing key updates the value in place.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.capacity <= 0 {
		return
	}
	if i, ok := c.items[key]; ok {
		c.nodes[i].val = val
		c.moveToFront(i)
		return
	}
	var i int32
	switch {
	case c.n >= c.capacity:
		// Full: the least recently used entry gives up its slot.
		i = c.tail
		c.unlink(i)
		delete(c.items, c.nodes[i].key)
		c.n--
	case c.free != nilNode:
		i = c.free
		c.free = c.nodes[i].next
	default:
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node[K, V]{})
	}
	c.nodes[i].key, c.nodes[i].val = key, val
	c.pushFront(i)
	c.items[key] = i
	c.n++
}

// Delete removes key if present and reports whether it was there.
func (c *Cache[K, V]) Delete(key K) bool {
	i, ok := c.items[key]
	if !ok {
		return false
	}
	delete(c.items, key)
	c.release(i)
	return true
}

// DeleteFunc removes every entry for which keep returns false and returns
// how many entries were removed. It visits entries in recency order.
func (c *Cache[K, V]) DeleteFunc(keep func(key K, val V) bool) int {
	removed := 0
	for i := c.head; i != nilNode; {
		next := c.nodes[i].next
		if nd := &c.nodes[i]; !keep(nd.key, nd.val) {
			delete(c.items, nd.key)
			c.release(i)
			removed++
		}
		i = next
	}
	if removed > 0 {
		c.compact()
	}
	return removed
}

// Clear removes every entry.
func (c *Cache[K, V]) Clear() { c.reset() }

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.n }

// Cap returns the capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

// compact re-packs the live entries, in recency order, into a fresh arena
// and map sized for them once a purge has left at most a quarter of the
// arena in use. Go maps never shrink, so the map is rebuilt too. Each
// re-pack at least halves the arena, so its cost amortizes over the
// removals that triggered it.
func (c *Cache[K, V]) compact() {
	if cap(c.nodes) <= minArena || c.n > cap(c.nodes)/4 {
		return
	}
	if c.n == 0 {
		c.reset()
		return
	}
	nodes := make([]node[K, V], 0, max(2*c.n, minArena))
	items := make(map[K]int32, c.n)
	for i := c.head; i != nilNode; i = c.nodes[i].next {
		nd := c.nodes[i]
		j := int32(len(nodes))
		nd.prev, nd.next = j-1, j+1
		nodes = append(nodes, nd)
		items[nd.key] = j
	}
	nodes[len(nodes)-1].next = nilNode
	c.nodes, c.items = nodes, items
	c.head, c.tail, c.free = 0, int32(len(nodes)-1), nilNode
}

// release unlinks slot i, drops its key and value, and frees the slot.
func (c *Cache[K, V]) release(i int32) {
	c.unlink(i)
	c.nodes[i] = node[K, V]{next: c.free}
	c.free = i
	c.n--
}

func (c *Cache[K, V]) moveToFront(i int32) {
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *Cache[K, V]) unlink(i int32) {
	prev, next := c.nodes[i].prev, c.nodes[i].next
	if prev != nilNode {
		c.nodes[prev].next = next
	} else {
		c.head = next
	}
	if next != nilNode {
		c.nodes[next].prev = prev
	} else {
		c.tail = prev
	}
}

func (c *Cache[K, V]) pushFront(i int32) {
	c.nodes[i].prev, c.nodes[i].next = nilNode, c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}
