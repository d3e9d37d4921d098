package pipeline

import (
	"math/rand"
	"testing"

	"bhive/internal/cache"
	"bhive/internal/exec"
	"bhive/internal/uarch"
)

func caches(cpu *uarch.CPU) (*cache.Cache, *cache.Cache) {
	return cache.New(cpu.L1ISize, cpu.L1Assoc, cpu.LineSize),
		cache.New(cpu.L1DSize, cpu.L1Assoc, cpu.LineSize)
}

// aluItem builds a single-µop ALU instruction with the given reg reads and
// writes.
func aluItem(cpu *uarch.CPU, reads, writes []uint8, lat uint8) Item {
	return Item{
		Desc: uarch.Desc{
			Uops:      []uarch.Uop{{Class: uarch.ClassIntALU, Ports: uarch.Ports(0, 1, 5, 6), Lat: lat}},
			FusedUops: 1,
		},
		DataReads: reads,
		Writes:    writes,
		CodeLen:   4,
	}
}

// simulate builds the items' graph and times it once: the route every
// timed run takes.
func simulate(cpu *uarch.CPU, items []Item, l1i, l1d *cache.Cache) Counters {
	var g Graph
	g.Build(cpu, items)
	return SimulateGraph(cpu, &g, l1i, l1d, Config{})
}

func run(cpu *uarch.CPU, items []Item) Counters {
	l1i, l1d := caches(cpu)
	// Warm-up, then the measured pass, like the profiler does.
	simulate(cpu, items, l1i, l1d)
	return simulate(cpu, items, l1i, l1d)
}

func TestDependentChainLatency(t *testing.T) {
	cpu := uarch.Haswell()
	var items []Item
	for i := 0; i < 100; i++ {
		items = append(items, aluItem(cpu, []uint8{0}, []uint8{0}, 1))
	}
	ctr := run(cpu, items)
	// 100 chained 1-cycle ops take ~100 cycles (+ small pipeline fill).
	if ctr.Cycles < 100 || ctr.Cycles > 115 {
		t.Fatalf("chain of 100: %d cycles", ctr.Cycles)
	}
}

func TestIndependentThroughput(t *testing.T) {
	cpu := uarch.Haswell()
	var items []Item
	for i := 0; i < 100; i++ {
		items = append(items, aluItem(cpu, nil, []uint8{uint8(i % 12)}, 1))
	}
	ctr := run(cpu, items)
	// 4-wide: ~25 cycles.
	if ctr.Cycles > 40 {
		t.Fatalf("independent 100: %d cycles", ctr.Cycles)
	}
}

func TestPortContention(t *testing.T) {
	cpu := uarch.Haswell()
	single := uarch.Ports(1)
	var items []Item
	for i := 0; i < 60; i++ {
		items = append(items, Item{
			Desc: uarch.Desc{
				Uops:      []uarch.Uop{{Class: uarch.ClassIntMul, Ports: single, Lat: 3}},
				FusedUops: 1,
			},
			Writes:  []uint8{uint8(i % 12)},
			CodeLen: 4,
		})
	}
	ctr := run(cpu, items)
	// One port, one µop per cycle: at least 60 cycles.
	if ctr.Cycles < 60 {
		t.Fatalf("port-bound 60 µops finished in %d cycles", ctr.Cycles)
	}
}

func TestDividerOccupancyBlocksPort(t *testing.T) {
	cpu := uarch.Haswell()
	var items []Item
	for i := 0; i < 8; i++ {
		items = append(items, Item{
			Desc: uarch.Desc{
				Uops: []uarch.Uop{{Class: uarch.ClassIntDiv, Ports: uarch.Ports(0),
					Lat: 21, Occupancy: 21}},
				FusedUops: 1,
			},
			Writes:  []uint8{uint8(i % 12)},
			CodeLen: 3,
		})
	}
	ctr := run(cpu, items)
	// Independent divides still serialize on the non-pipelined unit.
	if ctr.Cycles < 8*21 {
		t.Fatalf("8 divides in %d cycles, want >= %d", ctr.Cycles, 8*21)
	}
}

func TestZeroIdiomConsumesOnlyRenameSlot(t *testing.T) {
	cpu := uarch.Haswell()
	var items []Item
	for i := 0; i < 400; i++ {
		items = append(items, Item{
			Desc:    uarch.Desc{FusedUops: 1, ZeroIdiom: true},
			Writes:  []uint8{0},
			CodeLen: 2,
		})
	}
	ctr := run(cpu, items)
	// 4 per cycle through rename.
	if ctr.Cycles > 120 {
		t.Fatalf("400 idioms in %d cycles", ctr.Cycles)
	}
	if ctr.Uops != 0 {
		t.Fatalf("idioms must not issue µops, got %d", ctr.Uops)
	}
}

func TestZeroIdiomBreaksDependency(t *testing.T) {
	cpu := uarch.Haswell()
	var items []Item
	// Long-latency producer of reg 0, an idiom that overwrites reg 0,
	// then a chain of consumers: the consumers must not wait.
	items = append(items, aluItem(cpu, nil, []uint8{0}, 20))
	items = append(items, Item{Desc: uarch.Desc{FusedUops: 1, ZeroIdiom: true},
		Writes: []uint8{0}, CodeLen: 2})
	for i := 0; i < 10; i++ {
		items = append(items, aluItem(cpu, []uint8{0}, []uint8{0}, 1))
	}
	ctr := run(cpu, items)
	// Without the break, ~30+; with it, the consumers run concurrently
	// with the producer. Retirement is in order, so the producer's 20
	// cycles still bound the total — but barely more than that.
	if ctr.Cycles > 27 {
		t.Fatalf("dependency not broken: %d cycles", ctr.Cycles)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	cpu := uarch.Haswell()
	addr := uint64(0x1000)
	store := Item{
		Desc: uarch.Desc{
			Uops: []uarch.Uop{
				{Class: uarch.ClassStoreAddr, Ports: cpu.StoreAddrPorts, Lat: 1},
				{Class: uarch.ClassStoreData, Ports: cpu.StoreDataPorts, Lat: 1},
			},
			FusedUops: 1,
		},
		Store:   &exec.MemAccess{Addr: addr, Phys: addr, Size: 8, Write: true},
		CodeLen: 4,
	}
	load := Item{
		Desc: uarch.Desc{
			Uops:      []uarch.Uop{{Class: uarch.ClassLoad, Ports: cpu.LoadPorts, Lat: uint8(cpu.L1DLatency)}},
			FusedUops: 1,
		},
		Load:    &exec.MemAccess{Addr: addr, Phys: addr, Size: 8},
		Writes:  []uint8{1},
		CodeLen: 4,
	}
	var items []Item
	for i := 0; i < 20; i++ {
		items = append(items, store, load)
	}
	ctr := run(cpu, items)
	if ctr.Cycles == 0 || ctr.Cycles > 400 {
		t.Fatalf("forwarding run took %d cycles", ctr.Cycles)
	}
	// All loads forwarded: no cache read misses even on a cold D-cache.
	l1i, l1d := caches(cpu)
	cold := simulate(cpu, items, l1i, l1d)
	if cold.L1DReadMisses != 0 {
		t.Fatalf("forwarded loads must not touch the cache: %d misses", cold.L1DReadMisses)
	}
}

func TestPartialOverlapStallsLoad(t *testing.T) {
	cpu := uarch.Haswell()
	store := Item{
		Desc: uarch.Desc{
			Uops: []uarch.Uop{
				{Class: uarch.ClassStoreAddr, Ports: cpu.StoreAddrPorts, Lat: 1},
				{Class: uarch.ClassStoreData, Ports: cpu.StoreDataPorts, Lat: 1},
			},
			FusedUops: 1,
		},
		Store:   &exec.MemAccess{Addr: 0x1004, Phys: 0x1004, Size: 4, Write: true},
		CodeLen: 4,
	}
	// 8-byte load overlapping only half of the store.
	load := Item{
		Desc: uarch.Desc{
			Uops:      []uarch.Uop{{Class: uarch.ClassLoad, Ports: cpu.LoadPorts, Lat: uint8(cpu.L1DLatency)}},
			FusedUops: 1,
		},
		Load:    &exec.MemAccess{Addr: 0x1000, Phys: 0x1000, Size: 8},
		Writes:  []uint8{1},
		CodeLen: 4,
	}
	fast := run(cpu, []Item{store, load})
	// Compare against a disjoint load.
	loadFar := load
	loadFar.Load = &exec.MemAccess{Addr: 0x2000, Phys: 0x2000, Size: 8}
	far := run(cpu, []Item{store, loadFar})
	if fast.Cycles <= far.Cycles {
		t.Fatalf("partial overlap must stall: %d vs %d", fast.Cycles, far.Cycles)
	}
}

func TestFetchStallsOnColdICache(t *testing.T) {
	cpu := uarch.Haswell()
	var items []Item
	for i := 0; i < 64; i++ {
		it := aluItem(cpu, nil, []uint8{uint8(i % 12)}, 1)
		it.CodePhys = uint64(i * 4)
		items = append(items, it)
	}
	l1i, l1d := caches(cpu)
	cold := simulate(cpu, items, l1i, l1d)
	if cold.L1IMisses == 0 {
		t.Fatal("cold I-cache must miss")
	}
	warm := simulate(cpu, items, l1i, l1d)
	if warm.L1IMisses != 0 {
		t.Fatalf("warm I-cache must hit: %d misses", warm.L1IMisses)
	}
	if warm.Cycles >= cold.Cycles {
		t.Fatal("warm run must be faster")
	}
}

func TestEmptyAndCounters(t *testing.T) {
	cpu := uarch.Haswell()
	l1i, l1d := caches(cpu)
	ctr := simulate(cpu, nil, l1i, l1d)
	if ctr.Cycles != 0 || ctr.Instructions != 0 {
		t.Fatal("empty input")
	}
	items := []Item{aluItem(cpu, nil, []uint8{0}, 1)}
	ctr = simulate(cpu, items, l1i, l1d)
	if ctr.Instructions != 1 || ctr.Uops != 1 {
		t.Fatalf("counters: %+v", ctr)
	}
	if ctr.PortUops[0]+ctr.PortUops[1]+ctr.PortUops[5]+ctr.PortUops[6] != 1 {
		t.Fatal("per-port counters must account for the µop")
	}
}

// TestMoreUnrollNeverFaster: simulating k+j copies never takes fewer
// cycles than k copies — a basic monotonicity invariant behind the
// derived-throughput method.
func TestMoreUnrollNeverFaster(t *testing.T) {
	cpu := uarch.Haswell()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		var block []Item
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			block = append(block, aluItem(cpu,
				[]uint8{uint8(rng.Intn(8))}, []uint8{uint8(rng.Intn(8))}, uint8(1+rng.Intn(5))))
		}
		mk := func(k int) []Item {
			var out []Item
			for i := 0; i < k; i++ {
				out = append(out, block...)
			}
			return out
		}
		k := 2 + rng.Intn(6)
		c1 := run(cpu, mk(k))
		c2 := run(cpu, mk(k+1+rng.Intn(4)))
		if c2.Cycles < c1.Cycles {
			t.Fatalf("trial %d: more work finished faster (%d < %d)", trial, c2.Cycles, c1.Cycles)
		}
	}
}
