package pipeline

import (
	"math"
	"sync"

	"bhive/internal/cache"
	"bhive/internal/uarch"
)

// This file is the reference scheduler: the cycle-by-cycle loop the
// event-driven scheduler (event.go) was derived from, kept unchanged as
// the oracle it is checked against. Each cycle it walks the whole
// reservation station and the retire window; the event-driven scheduler
// must return bit-identical Counters on every input, including the cache
// state it leaves behind and the context-switch RNG draw sequence
// (TestSchedulerEquivalenceInPackage, machine.FuzzSimulateEquivalence).
// It also builds its own dependence edges from the items, independently
// of Graph.Build, so the fuzzer cross-checks the graph construction too.
//
// Only tests call it. It lives outside a _test.go file because tests in
// two packages (pipeline and machine) need it, and a test file is private
// to its package; with no production caller the linker drops it from the
// binaries.

// SimulateReference times the item sequence on the CPU with the reference
// scheduler and returns the counters. l1i and l1d carry cache state across
// calls exactly as in SimulateGraph.
func SimulateReference(cpu *uarch.CPU, items []Item, l1i, l1d *cache.Cache, cfg Config) Counters {
	s := scratchPool.Get().(*simScratch)
	// Deferred so a panic mid-simulation cannot leak the arena.
	defer scratchPool.Put(s)
	return s.simulate(cpu, items, l1i, l1d, cfg)
}

// storeRec tracks an in-flight store for forwarding and commit.
type storeRec struct {
	item    int
	addr    uint64
	size    int
	dataUop int32
	retired bool
}

// uop is a micro-op in flight. Dependence edges live in the simScratch
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

// simScratch holds every transient buffer one reference run needs.
// Scratches are recycled through a sync.Pool; a zero simScratch is ready
// to use.
type simScratch struct {
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

var scratchPool = sync.Pool{New: func() any { return new(simScratch) }}

// feSource gathers the items' front-end fields into the scratch's arrays.
func (s *simScratch) feSource(items []Item) feSource {
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

func (s *simScratch) simulate(cpu *uarch.CPU, items []Item, l1i, l1d *cache.Cache, cfg Config) Counters {
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
