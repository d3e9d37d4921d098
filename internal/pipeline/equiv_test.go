package pipeline

import (
	"math/rand"
	"testing"

	"bhive/internal/exec"
	"bhive/internal/uarch"
)

// equivWorkload builds an unrolled mixed workload — dependent and
// independent ALU work, a store/load forwarding pair, a divider, a zero
// idiom, and an LCP-marked encoding — laid out contiguously in code like
// machine.PrepareUnrolled would, so both front ends (legacy and modeled)
// and both back-end memory paths have something to do.
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
	lcpIt := aluItem(cpu, []uint8{0}, []uint8{0}, 1)
	lcpIt.LCP = true

	base := []Item{
		aluItem(cpu, []uint8{0}, []uint8{0}, 1),
		aluItem(cpu, nil, []uint8{4}, 3),
		storeIt, loadIt, loadFar, divIt, idiom, lcpIt,
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
// counters under every front-end and context-switch configuration. The
// machine-level fuzzer covers real decoded blocks; this one pins the
// invariant at the pipeline API with hand-built items.
func TestSchedulerEquivalenceInPackage(t *testing.T) {
	for _, cpu := range []*uarch.CPU{uarch.Haswell(), uarch.IceLake()} {
		items, body := equivWorkload(cpu, 12)
		configs := []struct {
			name string
			cfg  Config
		}{
			{"legacy", Config{}},
			{"modeled", Config{ModeledFrontEnd: true, LoopBody: body}},
			{"modeled whole-seq", Config{ModeledFrontEnd: true}},
			{"switches", Config{SwitchRate: 0.01, SwitchCost: 200}},
		}
		for _, tc := range configs {
			run := func(reference bool) (Counters, Counters) {
				sim := simulate
				if reference {
					sim = SimulateReference
				}
				cfg := tc.cfg
				if cfg.SwitchRate > 0 {
					cfg.Rand = rand.New(rand.NewSource(42))
				}
				l1i, l1d := caches(cpu)
				cold := sim(cpu, items, l1i, l1d, cfg)
				if cfg.SwitchRate > 0 {
					cfg.Rand = rand.New(rand.NewSource(42))
				}
				warm := sim(cpu, items, l1i, l1d, cfg)
				return cold, warm
			}
			evCold, evWarm := run(false)
			refCold, refWarm := run(true)
			if evCold != refCold {
				t.Errorf("%s/%s cold: event %+v != reference %+v", cpu.Name, tc.name, evCold, refCold)
			}
			if evWarm != refWarm {
				t.Errorf("%s/%s warm: event %+v != reference %+v", cpu.Name, tc.name, evWarm, refWarm)
			}
			if evWarm.Cycles == 0 {
				t.Errorf("%s/%s: zero warm cycles", cpu.Name, tc.name)
			}
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
	got := simulate(cpu, items, l1i, l1d, Config{})
	l1i, l1d = caches(cpu)
	want := SimulateReference(cpu, items, l1i, l1d, Config{})
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
// to both, in both front-end modes.
func TestGraphSliceEquivalence(t *testing.T) {
	cpu := uarch.Skylake()
	items, body := equivWorkload(cpu, 12)
	var g Graph
	g.Build(cpu, items)
	if g.NumItems() != len(items) {
		t.Fatalf("NumItems = %d, want %d", g.NumItems(), len(items))
	}
	half := body * 6
	for _, cfg := range []Config{{}, {ModeledFrontEnd: true, LoopBody: body}} {
		sl := g.Slice(half)
		if sl.NumItems() != half {
			t.Fatalf("Slice(%d).NumItems = %d", half, sl.NumItems())
		}
		l1i, l1d := caches(cpu)
		got := SimulateGraph(cpu, &sl, l1i, l1d, cfg)
		l1i2, l1d2 := caches(cpu)
		want := simulate(cpu, items[:half], l1i2, l1d2, cfg)
		if got != want {
			t.Fatalf("modeled=%v: sliced graph %+v != direct %+v",
				cfg.ModeledFrontEnd, got, want)
		}
		// The one-pass pair derives the prefix run on warm caches.
		l1i3, l1d3 := caches(cpu)
		SimulateGraph(cpu, &g, l1i3, l1d3, cfg)
		hi, lo, ok := SimulateGraphPair(cpu, &g, half, l1i3, l1d3, cfg)
		l1i4, l1d4 := caches(cpu)
		SimulateGraph(cpu, &g, l1i4, l1d4, cfg)
		wantHi := SimulateGraph(cpu, &g, l1i4, l1d4, cfg)
		wantLo := SimulateGraph(cpu, &sl, l1i4, l1d4, cfg)
		if !ok || hi != wantHi || lo != wantLo {
			t.Fatalf("modeled=%v: pair (%+v, %+v, ok=%v) != separate runs (%+v, %+v)",
				cfg.ModeledFrontEnd, hi, lo, ok, wantHi, wantLo)
		}
		// Out-of-range slice clamps to the whole graph.
		under, over := g.Slice(-1), g.Slice(len(items)+5)
		if under.NumItems() != len(items) || over.NumItems() != len(items) {
			t.Fatal("Slice must clamp out-of-range n to the full graph")
		}
	}
}
