// Package cache implements the set-associative L1 cache model shared by the
// instruction and data caches of the simulated cores. The data cache is
// virtually indexed and physically tagged (VIPT), which is what makes the
// single-physical-page mapping trick deliver guaranteed hits: every virtual
// page aliases the same 64 physical lines.
package cache

import "math/bits"

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	sets      int
	assoc     int
	lineSize  int
	lineShift uint
	// setMask is sets-1 when sets is a power of two; otherwise pow2 is
	// false and the set index is the line number modulo sets (Ice Lake's
	// 32 KiB 12-way L1I has 42 sets).
	setMask uint64
	pow2    bool

	// ways is set-major: set s owns ways[s*assoc : (s+1)*assoc].
	ways  []way
	clock uint64

	Hits   uint64
	Misses uint64
}

// way is one cache way. A line maps to exactly one set, so within a set
// the full line number serves as the tag. lru is the clock of the way's
// last access; 0 marks an invalid way, since the clock reads at least 1
// once anything is accessed.
type way struct {
	line, lru uint64
}

// New builds a cache of the given total size, associativity and line size.
// The line size must be a power of two.
func New(size, assoc, lineSize int) *Cache {
	c := new(Cache)
	c.Reshape(size, assoc, lineSize)
	return c
}

// Reshape makes c the cold cache New(size, assoc, lineSize) would build,
// reusing c's storage when it is large enough.
func (c *Cache) Reshape(size, assoc, lineSize int) {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	sets := size / (assoc * lineSize)
	if sets < 1 {
		sets = 1
	}
	ways := c.ways
	if n := sets * assoc; cap(ways) < n {
		ways = make([]way, n)
	} else {
		ways = ways[:n]
		clear(ways)
	}
	*c = Cache{
		sets: sets, assoc: assoc, lineSize: lineSize,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:   uint64(sets - 1),
		pow2:      sets&(sets-1) == 0,
		ways:      ways,
	}
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Access touches the line containing physAddr and reports whether it hit.
// Misses fill the line.
func (c *Cache) Access(physAddr uint64) bool {
	return c.touch(physAddr >> c.lineShift)
}

// touch accesses one line by line number.
func (c *Cache) touch(line uint64) bool {
	c.clock++
	set := line & c.setMask
	if !c.pow2 {
		set = line % uint64(c.sets)
	}
	ways := c.ways[int(set)*c.assoc:][:c.assoc]
	for w := range ways {
		if ways[w].line == line && ways[w].lru != 0 {
			ways[w].lru = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Fill the first invalid way, else evict the LRU one: invalid ways
	// hold the smallest lru, and ties keep the lowest way.
	victim := 0
	for w := range ways {
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	ways[victim] = way{line: line, lru: c.clock}
	return false
}

// AccessRange touches every line overlapped by [physAddr, physAddr+size)
// and returns the number of misses. Splits reports whether the access
// crossed a line boundary (the MISALIGNED_MEM_REFERENCE condition).
func (c *Cache) AccessRange(physAddr uint64, size int) (misses int, split bool) {
	first := physAddr >> c.lineShift
	last := (physAddr + uint64(size) - 1) >> c.lineShift
	for line := first; line <= last; line++ {
		if !c.touch(line) {
			misses++
		}
	}
	return misses, last != first
}

// Holds reports whether every line overlapped by [physAddr,
// physAddr+size) is resident, touching none of them: the LRU state and the
// hit and miss counts stay as they are.
func (c *Cache) Holds(physAddr uint64, size int) bool {
	first := physAddr >> c.lineShift
	last := (physAddr + uint64(size) - 1) >> c.lineShift
	for line := first; line <= last; line++ {
		set := line & c.setMask
		if !c.pow2 {
			set = line % uint64(c.sets)
		}
		found := false
		for _, w := range c.ways[int(set)*c.assoc:][:c.assoc] {
			if w.line == line && w.lru != 0 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Flush invalidates every line, keeping the LRU clock and the counters.
func (c *Cache) Flush() {
	clear(c.ways)
}

// ResetCounters clears the hit/miss statistics without touching contents.
func (c *Cache) ResetCounters() { c.Hits, c.Misses = 0, 0 }

// Reset cold-resets the cache to its just-constructed state — contents,
// LRU clock and counters — so a cache allocation can be reused across
// measurements without behavioral difference from a fresh New.
func (c *Cache) Reset() {
	if c.clock != 0 { // a cold cache's ways are already clear
		c.Flush()
	}
	c.clock = 0
	c.Hits, c.Misses = 0, 0
}

// Cold reports whether c is in its just-constructed state: nothing was
// accessed since New or the last Reset.
func (c *Cache) Cold() bool { return c.clock == 0 }

// CopyFrom makes c an exact copy of src — geometry, contents, LRU clock
// and counters — reusing c's storage when it is large enough. A zero
// Cache is a valid destination, so a Cache value doubles as a snapshot:
// snap.CopyFrom(live) takes one and live.CopyFrom(&snap) restores it.
func (c *Cache) CopyFrom(src *Cache) {
	ways := append(c.ways[:0], src.ways...)
	*c = *src
	c.ways = ways
}
