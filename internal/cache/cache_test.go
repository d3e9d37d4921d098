package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestHitMiss(t *testing.T) {
	c := New(32<<10, 8, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000) || !c.Access(0x1038) {
		t.Fatal("same line must hit")
	}
	if c.Access(0x1040) {
		t.Fatal("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestSetConflictEviction(t *testing.T) {
	// 32KB, 8-way, 64B lines → 64 sets. Nine lines mapping to the same
	// set overflow the ways.
	c := New(32<<10, 8, 64)
	setStride := uint64(64 * 64) // lines with the same set index
	for i := uint64(0); i < 9; i++ {
		c.Access(i * setStride)
	}
	if c.Access(0) { // way 0 was evicted by LRU
		t.Fatal("expected conflict eviction of the oldest line")
	}
}

func TestSamePhysicalPageNeverConflicts(t *testing.T) {
	// The VIPT property behind the single-physical-page trick: a 4KB page
	// covers 64 lines = one line per set, so repeated traversal of one
	// page fits trivially.
	c := New(32<<10, 8, 64)
	for pass := 0; pass < 4; pass++ {
		for off := uint64(0); off < 4096; off += 64 {
			c.Access(0x7000 + off)
		}
	}
	if c.Misses != 64 {
		t.Fatalf("only compulsory misses expected, got %d", c.Misses)
	}
}

func TestAccessRangeSplit(t *testing.T) {
	c := New(32<<10, 8, 64)
	misses, split := c.AccessRange(60, 8) // crosses the line at 64
	if !split || misses != 2 {
		t.Fatalf("split=%v misses=%d", split, misses)
	}
	_, split = c.AccessRange(64, 8)
	if split {
		t.Fatal("aligned access must not split")
	}
}

func TestFlushAndCounters(t *testing.T) {
	c := New(32<<10, 8, 64)
	c.Access(0x100)
	c.Flush()
	if c.Access(0x100) {
		t.Fatal("flush must invalidate")
	}
	c.ResetCounters()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("counters reset")
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(2*64*2, 2, 64) // 2 sets, 2 ways
	// Fill set 0 with lines A and B, touch A, then add C: B is evicted.
	a, b, d := uint64(0), uint64(2*64), uint64(4*64)
	c.Access(a)
	c.Access(b)
	c.Access(a)
	c.Access(d)
	if !c.Access(a) {
		t.Fatal("A should have survived")
	}
	if c.Access(b) {
		t.Fatal("B should have been evicted")
	}
}

// refCache is the cache model as first written — per-set arrays, a valid
// bit per way, tag = line / sets — kept as the oracle for the set-major
// layout.
type refCache struct {
	sets, assoc, lineSize int
	tags, lru             [][]uint64
	valid                 [][]bool
	clock, hits, misses   uint64
}

func newRef(size, assoc, lineSize int) *refCache {
	sets := max(size/(assoc*lineSize), 1)
	r := &refCache{sets: sets, assoc: assoc, lineSize: lineSize}
	for i := 0; i < sets; i++ {
		r.tags = append(r.tags, make([]uint64, assoc))
		r.lru = append(r.lru, make([]uint64, assoc))
		r.valid = append(r.valid, make([]bool, assoc))
	}
	return r
}

func (r *refCache) access(addr uint64) bool {
	r.clock++
	line := addr / uint64(r.lineSize)
	set := int(line % uint64(r.sets))
	tag := line / uint64(r.sets)
	for w := 0; w < r.assoc; w++ {
		if r.valid[set][w] && r.tags[set][w] == tag {
			r.lru[set][w] = r.clock
			r.hits++
			return true
		}
	}
	r.misses++
	victim := 0
	for w := 0; w < r.assoc; w++ {
		if !r.valid[set][w] {
			victim = w
			break
		}
		if r.lru[set][w] < r.lru[set][victim] {
			victim = w
		}
	}
	r.tags[set][victim], r.valid[set][victim], r.lru[set][victim] = tag, true, r.clock
	return false
}

func (r *refCache) flush() {
	for s := range r.valid {
		clear(r.valid[s])
	}
}

// TestMatchesReference drives the cache and the reference with the same
// random accesses, ranges and flushes on every shipped geometry — Ice
// Lake's 42-set L1I among them — and requires the same hit/miss answer on
// every access and the same counters.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range [][3]int{
		{32 << 10, 8, 64},  // Ivy Bridge to Skylake L1I and L1D
		{48 << 10, 12, 64}, // Ice Lake L1D: 64 sets
		{32 << 10, 12, 64}, // Ice Lake L1I: 42 sets
		{2 * 64 * 2, 2, 64},
		{64, 4, 64}, // fewer bytes than one set: 1 set
	} {
		c, r := New(g[0], g[1], g[2]), newRef(g[0], g[1], g[2])
		for i := 0; i < 200_000; i++ {
			// A few pages' worth of lines, so sets see conflicts.
			addr := uint64(rng.Intn(16<<12)) + uint64(rng.Intn(4))<<30
			switch op := rng.Intn(1000); {
			case op == 0:
				c.Flush()
				r.flush()
			case op < 100:
				size := 1 + rng.Intn(64)
				misses, split := c.AccessRange(addr, size)
				want := 0
				for line := addr / 64; line <= (addr+uint64(size)-1)/64; line++ {
					if !r.access(line * 64) {
						want++
					}
				}
				if misses != want || split != (addr/64 != (addr+uint64(size)-1)/64) {
					t.Fatalf("%v: AccessRange(%#x, %d) = %d, %v; reference %d misses", g, addr, size, misses, split, want)
				}
			default:
				if got, want := c.Access(addr), r.access(addr); got != want {
					t.Fatalf("%v: access %d at %#x: hit %v, reference %v", g, i, addr, got, want)
				}
			}
		}
		if c.Hits != r.hits || c.Misses != r.misses {
			t.Fatalf("%v: %d hits %d misses, reference %d %d", g, c.Hits, c.Misses, r.hits, r.misses)
		}
	}
}

// TestCopyFromRestoresExactly: a snapshot taken with CopyFrom and restored
// with CopyFrom leaves the cache equal, field for field, to the state it
// was taken in, and behaving the same from there; Reshape gives the cache
// New gives, and Cold holds exactly until the first access.
func TestCopyFromRestoresExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := New(32<<10, 12, 64)
	if !c.Cold() {
		t.Fatal("a new cache is not cold")
	}
	for i := 0; i < 5000; i++ {
		c.Access(uint64(rng.Intn(64 << 12)))
	}
	if c.Cold() {
		t.Fatal("an accessed cache is cold")
	}
	var snap Cache
	snap.CopyFrom(c)
	want := *New(32<<10, 12, 64)
	want.CopyFrom(c)
	c.Flush()
	for i := 0; i < 5000; i++ {
		c.Access(uint64(rng.Intn(64 << 12)))
	}
	c.Reshape(48<<10, 12, 64) // the other geometry, then back
	c.CopyFrom(&snap)
	if !reflect.DeepEqual(*c, want) {
		t.Fatal("restored cache differs from the snapshot's state")
	}
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(64 << 12))
		if c.Access(addr) != want.Access(addr) {
			t.Fatalf("access %d: restored cache and original disagree", i)
		}
	}
	c.Reshape(32<<10, 8, 64)
	if !reflect.DeepEqual(*c, *New(32<<10, 8, 64)) || !c.Cold() {
		t.Fatal("Reshape differs from New")
	}
}
