package pipeline

import (
	"slices"

	"bhive/internal/uarch"
)

// loadSpec is the immutable description of one item's load access.
type loadSpec struct {
	addr uint64
	phys uint64
	size int32
}

// storeSpec is the immutable description of one item's store: its address
// for forwarding checks, its physical address for retirement commit, and
// the µop that produces the store data (-1 if none).
type storeSpec struct {
	addr    uint64
	phys    uint64
	size    int32
	dataUop int32
}

// Graph is the prepare-once µop dependence graph of an item sequence: the
// rename-time analysis (zero idioms, move elimination, register dependence
// edges, store/load records, subnormal penalties) performed once and
// shared by every timed run over the same prepared program. Timing never
// mutates it: all per-simulation state lives in the scheduler's scratch.
// Only Build and Retime write it, and Retime writes only the µop timings.
// A Graph obtained from Slice shares the arenas of its parent — neither
// may be mutated while the other is in use.
//
// The graph mirrors the dependence construction of the reference
// cycle-by-cycle loop (SimulateReference) exactly; the two builds are
// deliberately independent so FuzzSimulateEquivalence cross-checks them.
type Graph struct {
	numItems  int
	numUops   int // µops in scope (a prefix slice trims this)
	numStores int // stores in scope

	// Per-µop arrays. deps is the forward dependence-edge arena indexed by
	// depLo/depHi; cons is the reverse (consumer) arena indexed by
	// consLo/consHi. Consumer edges may point past numUops on a prefix
	// slice and must be ignored there.
	uopItem []int32
	uopSpec []uarch.Uop
	depLo   []int32
	depHi   []int32
	deps    []int32
	consLo  []int32
	consHi  []int32
	cons    []int32

	// Per-item arrays (itemFirstUop and storePrefix carry one sentinel).
	// storePrefix[i] also bounds the stores older than item i: the
	// scheduler's forwarding scans start at storePrefix[i]-1.
	itemFirstUop []int32
	itemFused    []int32
	itemLoad     []int32 // index into loads, -1 if none
	itemStore    []int32 // index into stores, -1 if none
	storePrefix  []int32 // stores among items [0, i)
	codePhys     []uint64
	codeLen      []int32

	loads  []loadSpec
	stores []storeSpec

	// subnormal lists the items whose computation µops take the subnormal
	// penalty: FP items whose run hit the gradual-underflow slow path.
	subnormal []int32
}

// NumItems returns the number of items in scope.
func (g *Graph) NumItems() int { return g.numItems }

// Slice returns a prefix view of the first n items, sharing every arena
// with g. The view is returned by value, so taking it allocates nothing.
// The low-factor program is a prefix of the same prepared code, so its
// dependence graph is a prefix of the same prepared graph; tests time the
// low unroll on the view as the oracle of SimulateGraphPair's derived
// prefix run.
func (g *Graph) Slice(n int) Graph {
	if n < 0 || n > g.numItems {
		n = g.numItems
	}
	u := int(g.itemFirstUop[n])
	ns := int(g.storePrefix[n])
	// The per-item and per-µop slice headers are trimmed to the in-scope
	// lengths, so range loops stay in bounds without per-element scope
	// checks. The consumer arena is left full-length: reverse edges are
	// indexed per-µop and filtered against the scope at use.
	out := *g
	out.numItems, out.numUops, out.numStores = n, u, ns
	out.uopItem = g.uopItem[:u]
	out.uopSpec = g.uopSpec[:u]
	out.depLo = g.depLo[:u]
	out.depHi = g.depHi[:u]
	out.consLo = g.consLo[:u]
	out.consHi = g.consHi[:u]
	out.itemFirstUop = g.itemFirstUop[:n+1]
	out.itemFused = g.itemFused[:n]
	out.itemLoad = g.itemLoad[:n]
	out.itemStore = g.itemStore[:n]
	out.storePrefix = g.storePrefix[:n+1]
	out.codePhys = g.codePhys[:n]
	out.codeLen = g.codeLen[:n]
	out.stores = g.stores[:ns]
	return out
}

// Build populates g from the item sequence, reusing g's arenas. The
// dependence construction is the same rename-time pass the reference
// scheduler performs inline: zero idioms break dependences and issue no
// µops, eliminated moves alias the destination to the source's producer,
// loads feed address generation into computation, stores split into
// address and data µops, and subnormal FP work takes the microcode-assist
// penalty on both latency and port occupancy.
func (g *Graph) Build(cpu *uarch.CPU, items []Item) {
	n := len(items)
	g.numItems = n
	g.uopItem = g.uopItem[:0]
	g.uopSpec = g.uopSpec[:0]
	g.depLo = g.depLo[:0]
	g.depHi = g.depHi[:0]
	g.deps = g.deps[:0]
	g.loads = g.loads[:0]
	g.stores = g.stores[:0]
	g.subnormal = g.subnormal[:0]
	g.itemFirstUop = grow(g.itemFirstUop, n+1)
	g.itemFused = grow(g.itemFused, n)
	g.itemLoad = grow(g.itemLoad, n)
	g.itemStore = grow(g.itemStore, n)
	g.storePrefix = grow(g.storePrefix, n+1)
	g.codePhys = grow(g.codePhys, n)
	g.codeLen = grow(g.codeLen, n)

	var lastWriter [NumRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}

	for i := range items {
		it := &items[i]
		g.itemFirstUop[i] = int32(len(g.uopSpec))
		g.storePrefix[i] = int32(len(g.stores))
		g.itemFused[i] = int32(it.Desc.FusedUops)
		g.codePhys[i] = it.CodePhys
		g.codeLen[i] = int32(it.CodeLen)
		g.itemLoad[i] = -1
		g.itemStore[i] = -1
		if it.Load != nil {
			g.itemLoad[i] = int32(len(g.loads))
			g.loads = append(g.loads, loadSpec{
				addr: it.Load.Addr, phys: it.Load.Phys, size: int32(it.Load.Size),
			})
		}

		if it.Desc.ZeroIdiom {
			for _, w := range it.Writes {
				lastWriter[w] = -1 // dependency-breaking
			}
			continue
		}
		if it.Desc.EliminatedMove {
			src := int32(-1)
			if len(it.DataReads) > 0 {
				src = lastWriter[it.DataReads[0]]
			}
			for _, w := range it.Writes {
				lastWriter[w] = src
			}
			continue
		}

		addrDeps := func() {
			for _, r := range it.AddrReads {
				if p := lastWriter[r]; p >= 0 {
					g.deps = append(g.deps, p)
				}
			}
		}
		dataDeps := func() {
			for _, r := range it.DataReads {
				if p := lastWriter[r]; p >= 0 {
					g.deps = append(g.deps, p)
				}
			}
		}

		sub := it.Subnormal && it.Desc.FP
		if sub {
			g.subnormal = append(g.subnormal, int32(i))
		}
		var loadUop, lastCompute int32 = -1, -1
		for k := range it.Desc.Uops {
			spec := it.Desc.Uops[k]
			id := int32(len(g.uopSpec))
			depLo := int32(len(g.deps))
			switch spec.Class {
			case uarch.ClassLoad:
				addrDeps()
				loadUop = id
			case uarch.ClassStoreAddr:
				addrDeps()
			case uarch.ClassStoreData:
				if lastCompute >= 0 {
					g.deps = append(g.deps, lastCompute)
				} else {
					dataDeps()
					if loadUop >= 0 {
						g.deps = append(g.deps, loadUop)
					}
				}
			default: // computation
				dataDeps()
				if loadUop >= 0 {
					g.deps = append(g.deps, loadUop)
				}
				if lastCompute >= 0 {
					// Multi-µop instructions chain internally.
					g.deps = append(g.deps, lastCompute)
				}
				lastCompute = id
			}
			g.uopItem = append(g.uopItem, int32(i))
			g.uopSpec = append(g.uopSpec, timedUop(cpu, spec, sub))
			g.depLo = append(g.depLo, depLo)
			g.depHi = append(g.depHi, int32(len(g.deps)))
		}

		producer := lastCompute
		if producer < 0 {
			producer = loadUop
		}
		for _, w := range it.Writes {
			lastWriter[w] = producer
		}

		if it.Store != nil {
			var dataUop int32 = -1
			for k := range it.Desc.Uops {
				if it.Desc.Uops[k].Class == uarch.ClassStoreData {
					dataUop = g.itemFirstUop[i] + int32(k)
				}
			}
			g.itemStore[i] = int32(len(g.stores))
			g.stores = append(g.stores, storeSpec{
				addr: it.Store.Addr, phys: it.Store.Phys,
				size: int32(it.Store.Size), dataUop: dataUop,
			})
		}
	}
	g.itemFirstUop[n] = int32(len(g.uopSpec))
	g.storePrefix[n] = int32(len(g.stores))
	g.numUops = len(g.uopSpec)
	g.numStores = len(g.stores)

	g.buildConsumers()
}

// timedUop is u as the scheduler times it on cpu. With subnormal set (an
// FP item whose run hit the gradual-underflow slow path), computation
// µops — not the load, store-address or store-data µops — take the
// microcode-assist penalty on both latency and port occupancy. It is the
// one owner of that rule for Build and Retime.
func timedUop(cpu *uarch.CPU, u uarch.Uop, subnormal bool) uarch.Uop {
	if subnormal && u.Class != uarch.ClassLoad && u.Class != uarch.ClassStoreAddr && u.Class != uarch.ClassStoreData {
		pen := uint8(min(250, cpu.SubnormalPenalty))
		u.Lat += pen
		if u.Occupancy < pen {
			u.Occupancy = pen
		}
	}
	return u
}

// SameShape reports whether items described by a and by b give the same
// dependence graph: the same fused-domain µop count, rename-time
// eliminations, FP flag (which decides the subnormal penalty) and µop
// classes in order. Only their ports, latencies and occupancies may
// differ, and Retime rewrites exactly those.
func SameShape(a, b *uarch.Desc) bool {
	if a.FusedUops != b.FusedUops || a.ZeroIdiom != b.ZeroIdiom ||
		a.EliminatedMove != b.EliminatedMove || a.FP != b.FP || len(a.Uops) != len(b.Uops) {
		return false
	}
	for k := range a.Uops {
		if a.Uops[k].Class != b.Uops[k].Class {
			return false
		}
	}
	return true
}

// Retime rewrites g's µop timing for cpu, leaving its dependence
// structure as Build made it. descs is the repeated block: item i of g is
// a copy of descs[i%len(descs)], and each desc is SameShape as the one g
// was built or last retimed with. The result equals a fresh Build over
// the same items described by descs on cpu. g must be a graph Build made,
// not a Slice view. Only uopSpec is written: the first copy of the block
// is filled from descs, the rest is copied from it, and the subnormal
// items are patched.
func (g *Graph) Retime(cpu *uarch.CPU, descs []*uarch.Desc) {
	n := len(descs)
	if n == 0 || g.numItems == 0 {
		return
	}
	first := min(n, g.numItems)
	for i := 0; i < first; i++ {
		g.retimeItem(cpu, i, descs[i], false)
	}
	// Every copy of the block has the same µop layout, so the timings
	// repeat with the first copy's µop count as period, and each doubling
	// copy keeps that alignment.
	spec := g.uopSpec
	for k := int(g.itemFirstUop[first]); k > 0 && k < len(spec); k += k {
		copy(spec[k:], spec[:k])
	}
	for _, i := range g.subnormal {
		g.retimeItem(cpu, int(i), descs[int(i)%n], true)
	}
}

// retimeItem rewrites item i's µop timings from d.
func (g *Graph) retimeItem(cpu *uarch.CPU, i int, d *uarch.Desc, subnormal bool) {
	lo, hi := g.itemFirstUop[i], g.itemFirstUop[i+1]
	for k, u := range d.Uops[:hi-lo] {
		g.uopSpec[int(lo)+k] = timedUop(cpu, u, subnormal)
	}
}

// Equal reports whether g and h are the same graph, array by array (an
// empty array equals a nil one).
func (g *Graph) Equal(h *Graph) bool {
	return g.numItems == h.numItems && g.numUops == h.numUops && g.numStores == h.numStores &&
		slices.Equal(g.uopItem, h.uopItem) && slices.Equal(g.uopSpec, h.uopSpec) &&
		slices.Equal(g.depLo, h.depLo) && slices.Equal(g.depHi, h.depHi) && slices.Equal(g.deps, h.deps) &&
		slices.Equal(g.consLo, h.consLo) && slices.Equal(g.consHi, h.consHi) && slices.Equal(g.cons, h.cons) &&
		slices.Equal(g.itemFirstUop, h.itemFirstUop) && slices.Equal(g.itemFused, h.itemFused) &&
		slices.Equal(g.itemLoad, h.itemLoad) && slices.Equal(g.itemStore, h.itemStore) &&
		slices.Equal(g.storePrefix, h.storePrefix) && slices.Equal(g.codePhys, h.codePhys) &&
		slices.Equal(g.codeLen, h.codeLen) &&
		slices.Equal(g.loads, h.loads) && slices.Equal(g.stores, h.stores) &&
		slices.Equal(g.subnormal, h.subnormal)
}

// buildConsumers derives the reverse (producer → consumers) adjacency from
// the forward edges with a counting sort over the deps arena.
func (g *Graph) buildConsumers() {
	nu := g.numUops
	g.consLo = grow(g.consLo, nu)
	g.consHi = grow(g.consHi, nu)
	g.cons = grow(g.cons, len(g.deps))
	for u := 0; u < nu; u++ {
		g.consHi[u] = 0
	}
	for _, d := range g.deps {
		g.consHi[d]++
	}
	off := int32(0)
	for u := 0; u < nu; u++ {
		g.consLo[u] = off
		off += g.consHi[u]
		g.consHi[u] = g.consLo[u]
	}
	for u := 0; u < nu; u++ {
		for _, d := range g.deps[g.depLo[u]:g.depHi[u]] {
			g.cons[g.consHi[d]] = int32(u)
			g.consHi[d]++
		}
	}
}
