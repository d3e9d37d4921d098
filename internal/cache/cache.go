// Package cache implements the set-associative L1 cache model shared by the
// instruction and data caches of the simulated cores. The data cache is
// virtually indexed and physically tagged (VIPT), which is what makes the
// single-physical-page mapping trick deliver guaranteed hits: every virtual
// page aliases the same 64 physical lines.
package cache

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	sets     int
	assoc    int
	lineSize int

	tags  [][]uint64
	valid [][]bool
	lru   [][]uint64
	clock uint64

	Hits   uint64
	Misses uint64
}

// New builds a cache of the given total size, associativity and line size.
func New(size, assoc, lineSize int) *Cache {
	sets := size / (assoc * lineSize)
	if sets < 1 {
		sets = 1
	}
	c := &Cache{sets: sets, assoc: assoc, lineSize: lineSize}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, assoc)
		c.valid[i] = make([]bool, assoc)
		c.lru[i] = make([]uint64, assoc)
	}
	return c
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Access touches the line containing physAddr and reports whether it hit.
// Misses fill the line.
func (c *Cache) Access(physAddr uint64) bool {
	c.clock++
	line := physAddr / uint64(c.lineSize)
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	ways := c.tags[set]
	for w := range ways {
		if c.valid[set][w] && ways[w] == tag {
			c.lru[set][w] = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Fill, evicting the LRU way.
	victim := 0
	for w := range ways {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.lru[set][victim] = c.clock
	return false
}

// AccessRange touches every line overlapped by [physAddr, physAddr+size)
// and returns the number of misses. Splits reports whether the access
// crossed a line boundary (the MISALIGNED_MEM_REFERENCE condition).
func (c *Cache) AccessRange(physAddr uint64, size int) (misses int, split bool) {
	first := physAddr / uint64(c.lineSize)
	last := (physAddr + uint64(size) - 1) / uint64(c.lineSize)
	for line := first; line <= last; line++ {
		if !c.Access(line * uint64(c.lineSize)) {
			misses++
		}
	}
	return misses, last != first
}

// Flush invalidates the whole cache (used to model the pollution caused by
// a context switch).
func (c *Cache) Flush() {
	for s := range c.valid {
		clear(c.valid[s])
	}
}

// ResetCounters clears the hit/miss statistics without touching contents.
func (c *Cache) ResetCounters() { c.Hits, c.Misses = 0, 0 }

// Reset cold-resets the cache to its just-constructed state — contents,
// LRU clock and counters — so a cache allocation can be reused across
// measurements without behavioral difference from a fresh New.
func (c *Cache) Reset() {
	c.Flush()
	c.clock = 0
	c.Hits, c.Misses = 0, 0
}
