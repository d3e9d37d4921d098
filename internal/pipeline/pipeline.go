// Package pipeline is the cycle-level out-of-order core model — the
// "silicon" of this reproduction. It models the front end (16-byte fetch
// through an L1 instruction cache), rename-time optimizations (zero-idiom
// elimination, move elimination), allocation constrained by ROB /
// reservation-station / load- and store-buffer capacity, per-port
// oldest-first issue, a non-pipelined divider, load/store execution against
// an L1 data cache with store-to-load forwarding, split-access and
// subnormal penalties, in-order retirement, and timer-interrupt context
// switches. Its performance counters are what the measurement framework
// reads.
package pipeline

import (
	"math"
	"math/rand"
	"sync"

	"bhive/internal/cache"
	"bhive/internal/exec"
	"bhive/internal/uarch"
)

// Register identifiers used for dependence tracking: 0–15 GPRs (by 64-bit
// base), 16–31 vector registers (by YMM base), 32 the status flags.
const (
	RegFlags = 32
	NumRegs  = 33
)

// Item is one dynamic instruction prepared for timing.
type Item struct {
	Desc uarch.Desc

	// AddrReads are registers consumed by address generation; DataReads by
	// the computation itself (including RMW destinations and flags).
	AddrReads []uint8
	DataReads []uint8
	Writes    []uint8

	Load  *exec.MemAccess
	Store *exec.MemAccess

	// Subnormal marks FP work that hit the gradual-underflow slow path.
	Subnormal bool

	// CodePhys/CodeLen locate the instruction bytes for I-cache modelling.
	CodePhys uint64
	CodeLen  int

	// LCP marks a length-changing-prefix encoding, which stalls the
	// modeled predecoder (ignored by the legacy front end).
	LCP bool
}

// Config carries per-run knobs beyond the CPU parameter file.
type Config struct {
	// SwitchRate is the per-cycle probability of a timer interrupt /
	// context switch (0 disables). The OS quantum is huge relative to a
	// measurement, so realistic values are tiny (~1e-7..1e-6).
	SwitchRate float64
	// SwitchCost is the cycle cost of one context switch.
	SwitchCost uint64
	// Rand drives context-switch arrival times; nil disables switches.
	Rand *rand.Rand
	// Reference selects the retained cycle-by-cycle scheduler instead of
	// the default event-driven one. The two are bit-identical — same
	// Counters, same RNG draw sequence (see FuzzSimulateEquivalence); the
	// reference loop is the oracle the fast path is checked against.
	Reference bool
	// ModeledFrontEnd replaces the 16-bytes-per-cycle fetch approximation
	// with the uiCA-style decoded front end (predecode with LCP stalls,
	// MITE decode-group assignment, DSB residency and delivery, LSD
	// lock-down, and DSB↔MITE switch penalties), parameterized by the
	// CPU's FrontEnd fields. Off (the default) keeps the simulator
	// bit-identical to the legacy model.
	ModeledFrontEnd bool
	// LoopBody is the iteration length in instructions for the modeled
	// front end: the item sequence is treated as ceil(n/LoopBody)
	// iterations of the first LoopBody items (an unrolled basic block).
	// 0 means the whole sequence is one iteration (MITE-only delivery).
	LoopBody int
}

// Counters are the hardware performance counters the profiler reads.
type Counters struct {
	Cycles           uint64
	Instructions     uint64
	Uops             uint64
	L1DReadMisses    uint64
	L1DWriteMisses   uint64
	L1IMisses        uint64
	MisalignedLoads  uint64
	MisalignedStores uint64
	ContextSwitches  uint64
	// PortUops counts micro-ops issued per execution port — the per-port
	// counters Abel and Reineke's methodology relies on.
	PortUops [16]uint64
}

// storeRec tracks an in-flight store for forwarding and commit.
type storeRec struct {
	item    int
	addr    uint64
	size    int
	dataUop int32
	retired bool
}

// uop is a micro-op in flight. Dependence edges live in the SimScratch
// deps arena at [depLo, depHi).
type uop struct {
	item int
	spec uarch.Uop

	depLo, depHi int32 // producer µop ids in scratch.deps

	allocated bool
	issued    bool
	done      bool
	issueAt   uint64
	doneAt    uint64
}

const maxCycles = 50_000_000

// SimScratch holds every transient buffer one Simulate call needs, so the
// steady-state simulation path performs no heap allocation. Scratches are
// recycled through a sync.Pool; a zero SimScratch is ready to use.
type SimScratch struct {
	fetchReady   []uint64
	uops         []uop
	itemFirstUop []int32 // µop-id range starts per item, +1 sentinel
	deps         []int32 // dependence-edge arena indexed by uop.depLo/depHi
	itemStore    []int32 // index into stores, -1 if none
	stores       []storeRec
	rs           []int32  // allocated, unissued µop ids (age order)
	portBusy     []uint64 // busy-until for non-pipelined units
	portUse      []bool
	itemAlloc    []bool
	fe           frontEnd
	feSrc        feSource
}

var scratchPool = sync.Pool{New: func() any { return new(SimScratch) }}

// grow returns s[:n], reallocating when the capacity is short. The
// returned slice contents are unspecified; callers fully overwrite them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Simulate times the item sequence on the CPU and returns the counters.
// l1i and l1d carry cache state across calls (warmup vs. timed runs).
// Scratch memory is drawn from an internal pool, making the steady-state
// path allocation-free (see TestSimulateAllocs).
func Simulate(cpu *uarch.CPU, items []Item, l1i, l1d *cache.Cache, cfg Config) Counters {
	if cfg.Reference {
		s := scratchPool.Get().(*SimScratch)
		// Deferred so a panic mid-simulation cannot leak the arena.
		defer scratchPool.Put(s)
		return s.simulate(cpu, items, l1i, l1d, cfg)
	}
	g := graphPool.Get().(*Graph)
	defer graphPool.Put(g)
	g.Build(cpu, items)
	return SimulateGraph(cpu, g, l1i, l1d, cfg)
}

var graphPool = sync.Pool{New: func() any { return new(Graph) }}

// feSource gathers the items' front-end fields into the scratch's arrays.
func (s *SimScratch) feSource(items []Item) feSource {
	n := len(items)
	src := &s.feSrc
	src.codePhys = grow(src.codePhys, n)
	src.codeLen = grow(src.codeLen, n)
	src.fused = grow(src.fused, n)
	src.lcp = grow(src.lcp, n)
	for i := range items {
		it := &items[i]
		src.codePhys[i] = it.CodePhys
		src.codeLen[i] = int32(it.CodeLen)
		src.fused[i] = int32(it.Desc.FusedUops)
		src.lcp[i] = it.LCP
	}
	return *src
}

func (s *SimScratch) simulate(cpu *uarch.CPU, items []Item, l1i, l1d *cache.Cache, cfg Config) Counters {
	var ctr Counters
	ctr.Instructions = uint64(len(items))
	if len(items) == 0 {
		return ctr
	}

	s.fetchReady = grow(s.fetchReady, len(items))
	fetchReady := s.fetchReady
	if cfg.ModeledFrontEnd {
		modeledFetch(cpu, &s.fe, s.feSource(items), cfg.LoopBody, l1i, &ctr, fetchReady)
	} else {
		simulateFetch(cpu, items, l1i, &ctr, fetchReady)
	}

	// Build the µop list with dependence edges. Each item's µops are
	// contiguous, so itemFirstUop with a sentinel entry replaces the
	// per-item id slices.
	s.uops = s.uops[:0]
	s.deps = s.deps[:0]
	s.stores = s.stores[:0]
	s.itemFirstUop = grow(s.itemFirstUop, len(items)+1)
	s.itemStore = grow(s.itemStore, len(items))
	itemFirstUop := s.itemFirstUop
	itemStore := s.itemStore
	var lastWriter [NumRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}

	for i := range items {
		it := &items[i]
		itemStore[i] = -1
		itemFirstUop[i] = int32(len(s.uops))

		if it.Desc.ZeroIdiom {
			for _, w := range it.Writes {
				lastWriter[w] = -1 // dependency-breaking
			}
			continue
		}
		if it.Desc.EliminatedMove {
			// Alias the destination to the source's producer.
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
					s.deps = append(s.deps, p)
				}
			}
		}
		dataDeps := func() {
			for _, r := range it.DataReads {
				if p := lastWriter[r]; p >= 0 {
					s.deps = append(s.deps, p)
				}
			}
		}

		var loadUop, lastCompute int32 = -1, -1
		for k := range it.Desc.Uops {
			spec := it.Desc.Uops[k]
			u := uop{item: i, spec: spec, depLo: int32(len(s.deps))}
			id := int32(len(s.uops))
			switch spec.Class {
			case uarch.ClassLoad:
				addrDeps()
				loadUop = id
			case uarch.ClassStoreAddr:
				addrDeps()
			case uarch.ClassStoreData:
				if lastCompute >= 0 {
					s.deps = append(s.deps, lastCompute)
				} else {
					dataDeps()
					if loadUop >= 0 {
						s.deps = append(s.deps, loadUop)
					}
				}
			default: // computation
				dataDeps()
				if loadUop >= 0 {
					s.deps = append(s.deps, loadUop)
				}
				if lastCompute >= 0 {
					// Multi-µop instructions chain internally.
					s.deps = append(s.deps, lastCompute)
				}
				if it.Subnormal && it.Desc.FP {
					// Gradual underflow takes a microcode assist: it not
					// only lengthens the op but blocks the port, so
					// independent FP work cannot hide it.
					pen := uint8(min(250, cpu.SubnormalPenalty))
					u.spec.Lat += pen
					if u.spec.Occupancy < pen {
						u.spec.Occupancy = pen
					}
				}
				lastCompute = id
			}
			u.depHi = int32(len(s.deps))
			s.uops = append(s.uops, u)
		}

		// Register writes come from the last computation µop, or the load
		// for pure loads.
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
					dataUop = itemFirstUop[i] + int32(k)
				}
			}
			itemStore[i] = int32(len(s.stores))
			s.stores = append(s.stores, storeRec{
				item: i, addr: it.Store.Addr, size: int(it.Store.Size), dataUop: dataUop,
			})
		}
	}
	itemFirstUop[len(items)] = int32(len(s.uops))
	uops := s.uops
	stores := s.stores
	deps := s.deps
	ctr.Uops = uint64(len(uops))

	// Context-switch schedule.
	nextSwitch := uint64(math.MaxUint64)
	drawSwitch := func(now uint64) uint64 {
		if cfg.SwitchRate <= 0 || cfg.Rand == nil {
			return math.MaxUint64
		}
		gap := cfg.Rand.ExpFloat64() / cfg.SwitchRate
		if gap > 1e12 {
			return math.MaxUint64
		}
		return now + uint64(gap) + 1
	}
	nextSwitch = drawSwitch(0)

	// Main cycle loop.
	var (
		cycle        uint64
		nextAlloc    int // next item to allocate
		retired      int // items fully retired
		robUsed      int
		rsUsed       int
		loadBufUsed  int
		storeBufUsed int
	)
	s.rs = s.rs[:0]
	rs := s.rs
	s.portBusy = grow(s.portBusy, cpu.NumPorts)
	portBusy := s.portBusy
	for p := range portBusy {
		portBusy[p] = 0
	}
	s.portUse = grow(s.portUse, cpu.NumPorts)
	portUse := s.portUse

	s.itemAlloc = grow(s.itemAlloc, len(items))
	itemAllocated := s.itemAlloc
	for i := range itemAllocated {
		itemAllocated[i] = false
	}

	itemDone := func(i int) bool {
		for id := itemFirstUop[i]; id < itemFirstUop[i+1]; id++ {
			if !uops[id].done || uops[id].doneAt > cycle {
				return false
			}
		}
		return true
	}

	for retired < len(items) && cycle < maxCycles {
		// Context switch: jump the clock, flush caches.
		if cycle >= nextSwitch {
			ctr.ContextSwitches++
			cycle += cfg.SwitchCost
			l1i.Flush()
			l1d.Flush()
			nextSwitch = drawSwitch(cycle)
			continue
		}

		// Retire (in order, RetireWidth fused µops per cycle).
		retireBudget := cpu.RetireWidth
		for retired < len(items) && retireBudget > 0 {
			i := retired
			if !itemAllocated[i] || !itemDone(i) {
				break
			}
			if items[i].Desc.FusedUops > retireBudget && retireBudget < cpu.RetireWidth {
				break // finish next cycle
			}
			retireBudget -= items[i].Desc.FusedUops
			robUsed -= items[i].Desc.FusedUops
			if items[i].Load != nil {
				loadBufUsed--
			}
			if si := itemStore[i]; si >= 0 {
				// Commit the store to the cache.
				st := &stores[si]
				misses, split := l1d.AccessRange(items[i].Store.Phys, st.size)
				ctr.L1DWriteMisses += uint64(misses)
				if split {
					ctr.MisalignedStores++
				}
				st.retired = true
				storeBufUsed--
			}
			retired++
		}

		// Allocate (in order, IssueWidth fused µops per cycle).
		allocBudget := cpu.IssueWidth
		for nextAlloc < len(items) && allocBudget > 0 {
			it := &items[nextAlloc]
			if fetchReady[nextAlloc] > cycle {
				break
			}
			f := it.Desc.FusedUops
			if f > allocBudget {
				break
			}
			nExec := int(itemFirstUop[nextAlloc+1] - itemFirstUop[nextAlloc])
			if robUsed+f > cpu.ROBSize || rsUsed+nExec > cpu.RSSize {
				break
			}
			if it.Load != nil && loadBufUsed+1 > cpu.LoadBufs {
				break
			}
			if it.Store != nil && storeBufUsed+1 > cpu.StoreBufs {
				break
			}
			allocBudget -= f
			robUsed += f
			rsUsed += nExec
			if it.Load != nil {
				loadBufUsed++
			}
			if it.Store != nil {
				storeBufUsed++
			}
			itemAllocated[nextAlloc] = true
			for id := itemFirstUop[nextAlloc]; id < itemFirstUop[nextAlloc+1]; id++ {
				uops[id].allocated = true
				rs = append(rs, id)
			}
			nextAlloc++
		}

		// Issue (oldest first, one µop per port per cycle).
		for p := range portUse {
			portUse[p] = false
		}
		w := 0
		for _, id := range rs {
			u := &uops[id]
			// Dependences satisfied?
			ready := true
			for _, d := range deps[u.depLo:u.depHi] {
				if !uops[d].done || uops[d].doneAt > cycle {
					ready = false
					break
				}
			}
			if ready && u.spec.Class == uarch.ClassLoad {
				// Check for an older overlapping un-committed store.
				if loadBlocked(items, stores, uops, id, cycle) {
					ready = false
				}
			}
			if !ready {
				rs[w] = id
				w++
				continue
			}
			// Find a free allowed port (least-loaded heuristic: first free).
			port := -1
			for p := 0; p < cpu.NumPorts; p++ {
				if u.spec.Ports.Has(p) && !portUse[p] && portBusy[p] <= cycle {
					port = p
					break
				}
			}
			if port < 0 {
				rs[w] = id
				w++
				continue
			}
			portUse[port] = true
			ctr.PortUops[port]++
			if u.spec.Occupancy > 0 {
				portBusy[port] = cycle + uint64(u.spec.Occupancy)
			}
			u.issued = true
			u.issueAt = cycle
			lat := uint64(u.spec.Lat)

			if u.spec.Class == uarch.ClassLoad {
				extra, _ := loadExecute(items, stores, uops, id, l1d, &ctr, cpu)
				lat += extra
			}

			u.done = true
			u.doneAt = cycle + lat
			rsUsed--
		}
		rs = rs[:w]

		cycle++
	}
	s.rs = rs[:0] // keep the grown reservation-station buffer

	ctr.Cycles = cycle
	return ctr
}

// loadBlocked reports whether a ready load must stall because an older
// store to an overlapping address has not produced its data (or only
// partially overlaps and must drain to the cache first).
func loadBlocked(items []Item, stores []storeRec, uops []uop, loadID int32, cycle uint64) bool {
	u := &uops[loadID]
	ld := items[u.item].Load
	for si := len(stores) - 1; si >= 0; si-- {
		st := &stores[si]
		if st.item >= u.item {
			continue
		}
		if st.retired {
			break // all older stores at or before this one are committed
		}
		if !overlaps(ld.Addr, int(ld.Size), st.addr, st.size) {
			continue
		}
		if contains(st.addr, st.size, ld.Addr, int(ld.Size)) {
			// Forwardable once the store data is ready.
			if st.dataUop >= 0 && (!uops[st.dataUop].done || uops[st.dataUop].doneAt > cycle) {
				return true
			}
			return false
		}
		// Partial overlap: wait for commit.
		return true
	}
	return false
}

// loadExecute performs the cache access for an issuing load and returns
// extra latency beyond the base load-to-use latency.
func loadExecute(items []Item, stores []storeRec, uops []uop, loadID int32, l1d *cache.Cache, ctr *Counters, cpu *uarch.CPU) (extra uint64, forwarded bool) {
	u := &uops[loadID]
	ld := items[u.item].Load

	// Store-to-load forwarding?
	for si := len(stores) - 1; si >= 0; si-- {
		st := &stores[si]
		if st.item >= u.item {
			continue
		}
		if st.retired {
			break
		}
		if contains(st.addr, st.size, ld.Addr, int(ld.Size)) {
			return uint64(cpu.FwdLatency - cpu.L1DLatency + 1), true
		}
		if overlaps(ld.Addr, int(ld.Size), st.addr, st.size) {
			break
		}
	}

	misses, split := l1d.AccessRange(ld.Phys, int(ld.Size))
	if misses > 0 {
		ctr.L1DReadMisses += uint64(misses)
		extra += uint64(cpu.MissPenalty)
	}
	if split {
		ctr.MisalignedLoads++
		extra += uint64(cpu.SplitPenalty)
	}
	return extra, false
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

func contains(outer uint64, on int, inner uint64, in int) bool {
	return outer <= inner && inner+uint64(in) <= outer+uint64(on)
}

// simulateFetch models the 16-byte-per-cycle front end walking the code
// bytes through the L1 instruction cache, filling ready (len(items)) with
// the cycle each instruction's bytes are available for decode.
func simulateFetch(cpu *uarch.CPU, items []Item, l1i *cache.Cache, ctr *Counters, ready []uint64) {
	var bytes uint64  // total code bytes fetched
	var stalls uint64 // accumulated I-cache miss cycles
	lastLine := uint64(math.MaxUint64)
	for i := range items {
		it := &items[i]
		first := it.CodePhys / uint64(cpu.LineSize)
		last := (it.CodePhys + uint64(it.CodeLen) - 1) / uint64(cpu.LineSize)
		for line := first; line <= last; line++ {
			if line == lastLine {
				continue
			}
			lastLine = line
			if !l1i.Access(line * uint64(cpu.LineSize)) {
				ctr.L1IMisses++
				stalls += uint64(cpu.MissPenalty)
			}
		}
		bytes += uint64(it.CodeLen)
		ready[i] = bytes/16 + stalls
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
