package pipeline

import (
	"reflect"
	"testing"

	"bhive/internal/cache"
	"bhive/internal/exec"
	"bhive/internal/uarch"
)

// equivWorkload builds an unrolled mixed workload — dependent and
// independent ALU work, a store/load forwarding pair, a divider and a zero
// idiom — laid out contiguously in code like machine.PrepareUnrolled
// would, so the fetch stage and both back-end memory paths have something
// to do.
func equivWorkload(cpu *uarch.CPU, unroll int) (items []Item, body int) {
	storeIt := Item{
		Desc: uarch.Desc{
			Uops: []uarch.Uop{
				{Class: uarch.ClassStoreAddr, Ports: cpu.StoreAddrPorts, Lat: 1},
				{Class: uarch.ClassStoreData, Ports: cpu.StoreDataPorts, Lat: 1},
			},
			FusedUops: 1,
		},
		Store:   &exec.MemAccess{Addr: 0x1000, Phys: 0x1000, Size: 8, Write: true},
		CodeLen: 4,
	}
	loadIt := Item{
		Desc: uarch.Desc{
			Uops:      []uarch.Uop{{Class: uarch.ClassLoad, Ports: cpu.LoadPorts, Lat: uint8(cpu.L1DLatency)}},
			FusedUops: 1,
		},
		Load:    &exec.MemAccess{Addr: 0x1000, Phys: 0x1000, Size: 8},
		Writes:  []uint8{1},
		CodeLen: 4,
	}
	loadFar := loadIt
	loadFar.Load = &exec.MemAccess{Addr: 0x2004, Phys: 0x2004, Size: 8}
	loadFar.Writes = []uint8{2}
	divIt := Item{
		Desc: uarch.Desc{
			Uops: []uarch.Uop{{Class: uarch.ClassIntDiv, Ports: uarch.Ports(0),
				Lat: 21, Occupancy: 21}},
			FusedUops: 1,
		},
		DataReads: []uint8{1},
		Writes:    []uint8{3},
		CodeLen:   3,
	}
	idiom := Item{
		Desc:    uarch.Desc{FusedUops: 1, ZeroIdiom: true},
		Writes:  []uint8{0},
		CodeLen: 2,
	}
	base := []Item{
		aluItem(cpu, []uint8{0}, []uint8{0}, 1),
		aluItem(cpu, nil, []uint8{4}, 3),
		storeIt, loadIt, loadFar, divIt, idiom,
	}
	phys := uint64(0)
	for u := 0; u < unroll; u++ {
		for _, it := range base {
			it.CodePhys = phys
			phys += uint64(it.CodeLen)
			items = append(items, it)
		}
	}
	return items, len(base)
}

// TestSchedulerEquivalenceInPackage is the in-package twin of
// machine.FuzzSimulateEquivalence: on a mixed workload, the reference
// cycle-by-cycle scheduler and the event-driven one must return identical
// counters on cold and on warm caches. The machine-level fuzzer covers
// real decoded blocks; this one pins the invariant at the pipeline API
// with hand-built items.
func TestSchedulerEquivalenceInPackage(t *testing.T) {
	for _, cpu := range []*uarch.CPU{uarch.Haswell(), uarch.IceLake()} {
		items, _ := equivWorkload(cpu, 12)
		run := func(sim func(*uarch.CPU, []Item, *cache.Cache, *cache.Cache) Counters) (Counters, Counters) {
			l1i, l1d := caches(cpu)
			cold := sim(cpu, items, l1i, l1d)
			warm := sim(cpu, items, l1i, l1d)
			return cold, warm
		}
		evCold, evWarm := run(simulate)
		refCold, refWarm := run(SimulateReference)
		if evCold != refCold {
			t.Errorf("%s cold: event %+v != reference %+v", cpu.Name, evCold, refCold)
		}
		if evWarm != refWarm {
			t.Errorf("%s warm: event %+v != reference %+v", cpu.Name, evWarm, refWarm)
		}
		if evWarm.Cycles == 0 {
			t.Errorf("%s: zero warm cycles", cpu.Name)
		}
	}
}

// TestFullPortMaskEquivalence drives the issue stage's early exit: on a
// two-port machine that allocates four µops a cycle, the ready list
// outgrows the ports, so most cycles use up every port with ready µops
// left over. Those must stay ready, in age order, exactly as the
// reference scan leaves them.
func TestFullPortMaskEquivalence(t *testing.T) {
	cpu := uarch.Haswell()
	cpu.NumPorts = 2
	var items []Item
	for i := 0; i < 48; i++ {
		r := uint8(i % 3)
		it := aluItem(cpu, []uint8{r}, []uint8{r}, uint8(1+i%4))
		it.Desc.Uops[0].Ports = uarch.Ports(0, 1)
		if i%5 == 4 {
			it.Desc.Uops[0].Ports = uarch.Ports(1)
		}
		items = append(items, it)
	}
	l1i, l1d := caches(cpu)
	got := simulate(cpu, items, l1i, l1d)
	l1i, l1d = caches(cpu)
	want := SimulateReference(cpu, items, l1i, l1d)
	if got != want {
		t.Fatalf("event %+v != reference %+v", got, want)
	}
	if got.Cycles < uint64(len(items)/2) {
		t.Fatalf("%d µops on two ports took %d cycles", len(items), got.Cycles)
	}
}

// TestGraphSliceEquivalence pins the profiler's low-unroll derivation: a
// prefix Slice of the high-unroll graph must time identically to a graph
// built from the prefix items directly, and the one-pass pair identically
// to both.
func TestGraphSliceEquivalence(t *testing.T) {
	cpu := uarch.Skylake()
	items, body := equivWorkload(cpu, 12)
	var g Graph
	g.Build(cpu, items)
	if g.NumItems() != len(items) {
		t.Fatalf("NumItems = %d, want %d", g.NumItems(), len(items))
	}
	half := body * 6
	sl := g.Slice(half)
	if sl.NumItems() != half {
		t.Fatalf("Slice(%d).NumItems = %d", half, sl.NumItems())
	}
	l1i, l1d := caches(cpu)
	got := SimulateGraph(cpu, &sl, l1i, l1d, Config{})
	l1i2, l1d2 := caches(cpu)
	want := simulate(cpu, items[:half], l1i2, l1d2)
	if got != want {
		t.Fatalf("sliced graph %+v != direct %+v", got, want)
	}
	// The one-pass pair derives the prefix run on warm caches.
	l1i3, l1d3 := caches(cpu)
	SimulateGraph(cpu, &g, l1i3, l1d3, Config{})
	hi, lo, ok := SimulateGraphPair(cpu, &g, half, l1i3, l1d3, Config{})
	l1i4, l1d4 := caches(cpu)
	SimulateGraph(cpu, &g, l1i4, l1d4, Config{})
	wantHi := SimulateGraph(cpu, &g, l1i4, l1d4, Config{})
	wantLo := SimulateGraph(cpu, &sl, l1i4, l1d4, Config{})
	if !ok || hi != wantHi || lo != wantLo {
		t.Fatalf("pair (%+v, %+v, ok=%v) != separate runs (%+v, %+v)", hi, lo, ok, wantHi, wantLo)
	}
	// Out-of-range slice clamps to the whole graph.
	under, over := g.Slice(-1), g.Slice(len(items)+5)
	if under.NumItems() != len(items) || over.NumItems() != len(items) {
		t.Fatal("Slice must clamp out-of-range n to the full graph")
	}
}

// TestSchedPaths drives one run down each path of SimulateGraphPair — the
// in-order pass and every event-scheduler fallback — and checks that the
// path is counted, in cfg.Sched and process-wide, and that the run's
// counters, prefix counters and caches equal the event scheduler's alone
// (and the reference's, for runs that finish).
func TestSchedPaths(t *testing.T) {
	cpu := uarch.Haswell()
	alu := func(port int, reads, writes []uint8, lat uint8) Item {
		it := aluItem(cpu, reads, writes, lat)
		it.Desc.Uops[0].Ports = uarch.Ports(port)
		return it
	}
	load := Item{
		Desc: uarch.Desc{
			Uops:      []uarch.Uop{{Class: uarch.ClassLoad, Ports: cpu.LoadPorts, Lat: uint8(cpu.L1DLatency)}},
			FusedUops: 1,
		},
		Load:    &exec.MemAccess{Addr: 0x1000, Phys: 0x1000, Size: 8},
		Writes:  []uint8{5},
		CodeLen: 4,
	}
	div := Item{
		Desc: uarch.Desc{
			Uops:      []uarch.Uop{{Class: uarch.ClassIntDiv, Ports: uarch.Ports(0), Lat: 21, Occupancy: 21}},
			FusedUops: 1,
		},
		Writes:  []uint8{3},
		CodeLen: 3,
	}
	wide := aluItem(cpu, nil, []uint8{6}, 1)
	wide.Desc.FusedUops = cpu.IssueWidth + 1
	portless := aluItem(cpu, nil, []uint8{7}, 1)
	portless.Desc.Uops[0].Ports = uarch.Ports(cpu.NumPorts)
	repeat := func(body []Item, times int) []Item {
		var out []Item
		for k := 0; k < times; k++ {
			out = append(out, body...)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		items  []Item
		cold   bool // time on cold caches, not after a warm-up run
		path   Path
		stalls bool // the run spins to the cycle cap
	}{
		{"in-order", repeat([]Item{alu(0, []uint8{0}, []uint8{0}, 1), load, alu(1, []uint8{5}, []uint8{4}, 3)}, 16), false, PathInOrder, false},
		// The divider, younger, issues first and holds port 0 over the
		// cycle the older dependent ALU µop takes it.
		{"conflict", []Item{alu(1, []uint8{1}, []uint8{1}, 10), alu(0, []uint8{1}, []uint8{2}, 1), div}, false, PathConflict, false},
		{"not-resident", repeat([]Item{load}, 8), true, PathNotResident, false},
		{"over-wide", []Item{alu(0, nil, []uint8{0}, 1), wide}, false, PathOverWide, true},
		{"cycle-cap", []Item{alu(0, nil, []uint8{0}, 1), portless}, false, PathCycleCap, true},
	} {
		var g Graph
		g.Build(cpu, tc.items)
		nLo := len(tc.items) / 2
		run := func(sim func(*uarch.CPU, *Graph, int, *cache.Cache, *cache.Cache, Config) (Counters, Counters, bool), cfg Config) (hi, lo Counters, ok bool, l1i, l1d *cache.Cache) {
			l1i, l1d = caches(cpu)
			if !tc.cold {
				SimulateEvent(cpu, &g, 0, l1i, l1d, cfg)
			}
			hi, lo, ok = sim(cpu, &g, nLo, l1i, l1d, cfg)
			return hi, lo, ok, l1i, l1d
		}
		var sink SchedCounters
		before := SchedStats()
		hi, lo, ok, l1i, l1d := run(SimulateGraphPair, Config{Sched: &sink})
		want := SchedCounters{}
		want[tc.path] = 1
		if sink != want {
			t.Errorf("%s: counted %s, want %s", tc.name, sink, want)
		}
		if d := SchedStats().Sub(before); d[tc.path] < 1 {
			t.Errorf("%s: process-wide counts moved by %s", tc.name, d)
		}
		eHi, eLo, eOK, eI, eD := run(SimulateEvent, Config{})
		if hi != eHi || lo != eLo || ok != eOK {
			t.Errorf("%s: (%+v, %+v, %v) != event scheduler's (%+v, %+v, %v)", tc.name, hi, lo, ok, eHi, eLo, eOK)
		}
		if !reflect.DeepEqual(l1i, eI) || !reflect.DeepEqual(l1d, eD) {
			t.Errorf("%s: caches differ from the event scheduler's", tc.name)
		}
		if stalled := hi.Cycles >= maxCycles; stalled != tc.stalls {
			t.Errorf("%s: %d cycles", tc.name, hi.Cycles)
		}
		if tc.stalls {
			continue // the reference would spin to the cap one cycle at a time
		}
		rI, rD := caches(cpu)
		if !tc.cold {
			SimulateReference(cpu, tc.items, rI, rD)
		}
		if ref := SimulateReference(cpu, tc.items, rI, rD); ref != hi {
			t.Errorf("%s: %+v != reference %+v", tc.name, hi, ref)
		}
	}
}
