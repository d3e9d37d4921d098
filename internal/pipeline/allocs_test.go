package pipeline

import (
	"testing"

	"bhive/internal/uarch"
)

// TestSimulateAllocs guards the arena design of the timing route
// machine.PrepareGraph/TimeGraph takes: once a reused Graph and the pooled
// scheduler state have grown to the working-set size, rebuilding the
// graph and scheduling it must not allocate.
func TestSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cpu := uarch.Haswell()
	var items []Item
	for i := 0; i < 64; i++ {
		items = append(items, aluItem(cpu, []uint8{0, 1}, []uint8{0}, 1))
	}
	l1i, l1d := caches(cpu)
	var g Graph
	// Grow the graph arenas and the pooled state, and warm the caches.
	g.Build(cpu, items)
	SimulateGraph(cpu, &g, l1i, l1d, Config{})

	avg := testing.AllocsPerRun(200, func() {
		g.Build(cpu, items)
		SimulateGraph(cpu, &g, l1i, l1d, Config{})
	})
	if avg != 0 {
		t.Fatalf("Build+SimulateGraph allocates %.2f times per run in steady state; want 0", avg)
	}
}

// TestSimulateGraphAllocs pins the graph paths at zero steady-state
// allocations: SimulateGraph, the one-pass pair with a derived prefix, and
// a prefix view from Graph.Slice, which is a value. Every warm run takes
// the in-order pass, whose ring and per-µop arrays live in the pooled
// state.
func TestSimulateGraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cpu := uarch.Haswell()
	items, body := equivWorkload(cpu, 12)
	var g Graph
	g.Build(cpu, items)
	nLo := body * 6
	l1i, l1d := caches(cpu)
	// Grow the pooled state and warm the caches, so the pair derives.
	SimulateGraphPair(cpu, &g, nLo, l1i, l1d, Config{})
	var sink SchedCounters
	cfg := Config{Sched: &sink}
	if _, _, ok := SimulateGraphPair(cpu, &g, nLo, l1i, l1d, cfg); !ok {
		t.Fatal("warm pair not derived")
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"SimulateGraph", func() { SimulateGraph(cpu, &g, l1i, l1d, cfg) }},
		{"SimulateGraphPair", func() { SimulateGraphPair(cpu, &g, nLo, l1i, l1d, cfg) }},
		{"Slice", func() {
			sl := g.Slice(nLo)
			SimulateGraph(cpu, &sl, l1i, l1d, cfg)
		}},
	} {
		if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
			t.Errorf("%s allocates %.2f times per run in steady state; want 0", tc.name, avg)
		}
	}
	if sink.Fallbacks() > 0 || sink[PathInOrder] == 0 {
		t.Errorf("warm runs took %s; want the in-order pass only", sink)
	}
}
