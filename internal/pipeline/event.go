package pipeline

import (
	"math"
	"sync"

	"bhive/internal/cache"
	"bhive/internal/uarch"
)

// This file is the event-driven scheduler: the default simulation core.
// It computes bit-identical Counters to the reference cycle-by-cycle loop
// in pipeline.go (selected with Config.Reference and cross-checked by
// FuzzSimulateEquivalence) but replaces the two per-cycle O(state) scans —
// the reservation-station walk and the retire-readiness walk — with a
// completion heap plus per-µop dependence counters, and skips runs of
// cycles in which nothing can happen.
//
// The determinism argument: every per-cycle decision in the reference loop
// compares a precomputed threshold against the current cycle — µop
// completion times (doneAt), fetch availability (fetchReady), port
// busy-until times (portBusy), and the context-switch arrival
// (nextSwitch). If a cycle makes no progress (nothing retires, allocates,
// or issues), no state changes, so every following cycle is identical
// until the earliest of those thresholds; jumping the clock straight
// there is unobservable. Cycles in which progress *does* happen advance
// by exactly one, because the per-cycle budgets (retire width, issue
// width, one µop per port) reset on cycle boundaries. RNG draw order is
// preserved because draws happen only when a switch fires, and the skip
// target never jumps past nextSwitch.

// Completion-heap entries pack (doneAt << heapIDBits) | µop id, so the
// min-heap orders by completion time, ties by age. doneAt stays below
// maxCycles plus a few hundred cycles of latency (< 2^38) and µop ids are
// bounded by exec's step cap times a handful of µops each (< 2^26), so
// the packing is exact.
const (
	heapIDBits = 26
	heapIDMask = 1<<heapIDBits - 1
)

// eventState holds the per-simulation mutable state of the event-driven
// scheduler; the immutable structure lives in the Graph. Pooled, so the
// steady-state path performs no heap allocation.
type eventState struct {
	fetchReady   []uint64
	doneAt       []uint64 // per µop; MaxUint64 until issued
	pending      []int32  // per µop: producers not yet completed
	itemRemain   []int32  // per item: µops not yet completed
	itemAlloc    []bool
	storeRetired []bool
	ready        []int32 // allocated µops with pending == 0, sorted by id
	newReady     []int32 // became ready during a completion drain
	mergeBuf     []int32
	heap         []uint64 // completion min-heap (packed)
	portBusy     []uint64
	portUse      []bool
}

var eventPool = sync.Pool{New: func() any { return new(eventState) }}

// SimulateGraph times a prebuilt µop graph on the CPU and returns the
// counters. It is the graph-accepting form of Simulate: the caller builds
// the Graph once per prepared program and reuses it across warm-up, both
// unroll factors (via Graph.Slice), and every acceptance sample. l1i and
// l1d carry cache state across calls exactly as in Simulate.
func SimulateGraph(cpu *uarch.CPU, g *Graph, l1i, l1d *cache.Cache, cfg Config) Counters {
	st := eventPool.Get().(*eventState)
	defer eventPool.Put(st)
	return st.run(cpu, g, l1i, l1d, cfg)
}

func (s *eventState) run(cpu *uarch.CPU, g *Graph, l1i, l1d *cache.Cache, cfg Config) Counters {
	var ctr Counters
	n := g.numItems
	ctr.Instructions = uint64(n)
	if n == 0 {
		return ctr
	}
	nu := g.numUops
	ctr.Uops = uint64(nu)

	s.fetchReady = grow(s.fetchReady, n)
	fetchReady := s.fetchReady
	if cfg.ModeledFrontEnd {
		modeledFetch(cpu, feGraph{g}, cfg.LoopBody, l1i, &ctr, fetchReady)
	} else {
		simulateFetchGraph(cpu, g, l1i, &ctr, fetchReady)
	}

	s.doneAt = grow(s.doneAt, nu)
	s.pending = grow(s.pending, nu)
	doneAt, pending := s.doneAt, s.pending
	for id := 0; id < nu; id++ {
		doneAt[id] = math.MaxUint64
		pending[id] = g.depHi[id] - g.depLo[id]
	}
	s.itemRemain = grow(s.itemRemain, n)
	s.itemAlloc = grow(s.itemAlloc, n)
	itemRemain, itemAlloc := s.itemRemain, s.itemAlloc
	for i := 0; i < n; i++ {
		itemRemain[i] = g.itemFirstUop[i+1] - g.itemFirstUop[i]
		itemAlloc[i] = false
	}
	s.storeRetired = grow(s.storeRetired, g.numStores)
	storeRetired := s.storeRetired
	for i := range storeRetired {
		storeRetired[i] = false
	}
	s.ready = s.ready[:0]
	s.newReady = s.newReady[:0]
	s.heap = s.heap[:0]
	s.portBusy = grow(s.portBusy, cpu.NumPorts)
	s.portUse = grow(s.portUse, cpu.NumPorts)
	portBusy, portUse := s.portBusy, s.portUse
	for p := range portBusy {
		portBusy[p] = 0
	}

	// Context-switch schedule — same draw as the reference loop.
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
	nextSwitch := drawSwitch(0)

	var (
		cycle        uint64
		nextAlloc    int
		retired      int
		robUsed      int
		rsUsed       int
		loadBufUsed  int
		storeBufUsed int
	)

	for retired < n && cycle < maxCycles {
		// Context switch: jump the clock, flush caches.
		if cycle >= nextSwitch {
			ctr.ContextSwitches++
			cycle += cfg.SwitchCost
			l1i.Flush()
			l1d.Flush()
			nextSwitch = drawSwitch(cycle)
			continue
		}

		// Process completions whose time has come, before retire/issue
		// look at them — matching the reference's "doneAt <= cycle" tests.
		for len(s.heap) > 0 && s.heap[0]>>heapIDBits <= cycle {
			s.complete(g, int32(heapPop(&s.heap)&heapIDMask))
		}
		if len(s.newReady) > 0 {
			s.mergeReady()
		}

		progress := false

		// Retire (in order, RetireWidth fused µops per cycle).
		retireBudget := cpu.RetireWidth
		for retired < n && retireBudget > 0 {
			i := retired
			if !itemAlloc[i] || itemRemain[i] > 0 {
				break
			}
			f := int(g.itemFused[i])
			if f > retireBudget && retireBudget < cpu.RetireWidth {
				break // finish next cycle
			}
			retireBudget -= f
			robUsed -= f
			if g.itemLoad[i] >= 0 {
				loadBufUsed--
			}
			if si := g.itemStore[i]; si >= 0 {
				// Commit the store to the cache.
				st := &g.stores[si]
				misses, split := l1d.AccessRange(st.phys, int(st.size))
				ctr.L1DWriteMisses += uint64(misses)
				if split {
					ctr.MisalignedStores++
				}
				storeRetired[si] = true
				storeBufUsed--
			}
			retired++
			progress = true
		}

		// Allocate (in order, IssueWidth fused µops per cycle).
		allocBudget := cpu.IssueWidth
		for nextAlloc < n && allocBudget > 0 {
			if fetchReady[nextAlloc] > cycle {
				break
			}
			f := int(g.itemFused[nextAlloc])
			if f > allocBudget {
				break
			}
			first, next := g.itemFirstUop[nextAlloc], g.itemFirstUop[nextAlloc+1]
			nExec := int(next - first)
			if robUsed+f > cpu.ROBSize || rsUsed+nExec > cpu.RSSize {
				break
			}
			hasLoad := g.itemLoad[nextAlloc] >= 0
			hasStore := g.itemStore[nextAlloc] >= 0
			if hasLoad && loadBufUsed+1 > cpu.LoadBufs {
				break
			}
			if hasStore && storeBufUsed+1 > cpu.StoreBufs {
				break
			}
			allocBudget -= f
			robUsed += f
			rsUsed += nExec
			if hasLoad {
				loadBufUsed++
			}
			if hasStore {
				storeBufUsed++
			}
			itemAlloc[nextAlloc] = true
			for id := first; id < next; id++ {
				if pending[id] == 0 {
					// Allocation is in µop-id order, so appending keeps
					// the ready list sorted.
					s.ready = append(s.ready, id)
				}
			}
			nextAlloc++
			progress = true
		}

		// Issue (oldest first, one µop per port per cycle). The ready list
		// holds exactly the allocated µops whose producers have completed,
		// in age order — the subset of the reference's reservation-station
		// scan that can possibly issue.
		for p := range portUse {
			portUse[p] = false
		}
		ready := s.ready
		w := 0
		for idx := 0; idx < len(ready); idx++ {
			id := ready[idx]
			spec := &g.uopSpec[id]
			if spec.Class == uarch.ClassLoad && s.loadBlockedG(g, id, cycle) {
				ready[w] = id
				w++
				continue
			}
			// Find a free allowed port (least-loaded heuristic: first free).
			port := -1
			for p := 0; p < cpu.NumPorts; p++ {
				if spec.Ports.Has(p) && !portUse[p] && portBusy[p] <= cycle {
					port = p
					break
				}
			}
			if port < 0 {
				ready[w] = id
				w++
				continue
			}
			portUse[port] = true
			ctr.PortUops[port]++
			if spec.Occupancy > 0 {
				portBusy[port] = cycle + uint64(spec.Occupancy)
			}
			lat := uint64(spec.Lat)
			if spec.Class == uarch.ClassLoad {
				lat += s.loadExecuteG(g, id, l1d, &ctr, cpu)
			}
			rsUsed--
			doneAt[id] = cycle + lat
			if lat == 0 {
				// Zero-latency µop (none exist in the shipped parameter
				// files, but keep the reference semantics): the reference
				// scan lets its same-cycle consumers — always younger —
				// issue later in this very pass, so complete it now and
				// splice newly-ready consumers into the unvisited tail.
				s.completeInline(g, id, idx, &ready)
			} else {
				heapPush(&s.heap, doneAt[id]<<heapIDBits|uint64(id))
			}
			progress = true
		}
		s.ready = ready[:w]

		if progress {
			cycle++
			continue
		}

		// Nothing happened: jump to the earliest cycle at which anything
		// can. Candidates are the thresholds the per-cycle checks compare
		// against; nextSwitch bounds the jump so the RNG draw sequence is
		// untouched.
		next := nextSwitch
		if len(s.heap) > 0 {
			if at := s.heap[0] >> heapIDBits; at < next {
				next = at
			}
		}
		if nextAlloc < n {
			if fr := fetchReady[nextAlloc]; fr > cycle && fr < next {
				next = fr
			}
		}
		for p := 0; p < cpu.NumPorts; p++ {
			if b := portBusy[p]; b > cycle && b < next {
				next = b
			}
		}
		if next > maxCycles {
			// Deadlock or far-future event: the reference spins to the
			// cycle cap one cycle at a time; land exactly there.
			next = maxCycles
		}
		cycle = next
	}

	ctr.Cycles = cycle
	return ctr
}

// complete processes one µop completion: its item is one µop closer to
// retirement, and consumers with no remaining producers become ready.
// Consumer edges can point past a prefix slice's scope and are skipped.
func (s *eventState) complete(g *Graph, id int32) {
	s.itemRemain[g.uopItem[id]]--
	for _, c := range g.cons[g.consLo[id]:g.consHi[id]] {
		if int(c) >= g.numUops {
			continue
		}
		if s.pending[c]--; s.pending[c] == 0 && s.itemAlloc[g.uopItem[c]] {
			s.newReady = append(s.newReady, c)
		}
	}
}

// completeInline is complete for a µop that finished in its own issue
// cycle (lat 0): newly-ready consumers are spliced directly into the
// unvisited tail of the ready list so the current issue pass still visits
// them, exactly as the reference reservation-station scan would.
func (s *eventState) completeInline(g *Graph, id int32, idx int, ready *[]int32) {
	s.itemRemain[g.uopItem[id]]--
	for _, c := range g.cons[g.consLo[id]:g.consHi[id]] {
		if int(c) >= g.numUops {
			continue
		}
		if s.pending[c]--; s.pending[c] == 0 && s.itemAlloc[g.uopItem[c]] {
			r := *ready
			pos := idx + 1
			for pos < len(r) && r[pos] < c {
				pos++
			}
			r = append(r, 0)
			copy(r[pos+1:], r[pos:])
			r[pos] = c
			*ready = r
		}
	}
}

// mergeReady folds the (unsorted) completion-drain arrivals into the
// sorted ready list.
func (s *eventState) mergeReady() {
	nr := s.newReady
	// Insertion sort: completions pop in (time, id) order, so arrivals are
	// short and nearly sorted.
	for i := 1; i < len(nr); i++ {
		for j := i; j > 0 && nr[j-1] > nr[j]; j-- {
			nr[j-1], nr[j] = nr[j], nr[j-1]
		}
	}
	r := s.ready
	buf := s.mergeBuf[:0]
	i, j := 0, 0
	for i < len(r) && j < len(nr) {
		if r[i] < nr[j] {
			buf = append(buf, r[i])
			i++
		} else {
			buf = append(buf, nr[j])
			j++
		}
	}
	buf = append(buf, r[i:]...)
	buf = append(buf, nr[j:]...)
	s.ready, s.mergeBuf = buf, r[:0]
	s.newReady = nr[:0]
}

// loadBlockedG mirrors loadBlocked on the graph representation.
func (s *eventState) loadBlockedG(g *Graph, loadID int32, cycle uint64) bool {
	item := g.uopItem[loadID]
	ld := &g.loads[g.itemLoad[item]]
	for si := len(g.stores) - 1; si >= 0; si-- {
		st := &g.stores[si]
		if st.item >= item {
			continue
		}
		if s.storeRetired[si] {
			break // all older stores at or before this one are committed
		}
		if !overlaps(ld.addr, int(ld.size), st.addr, int(st.size)) {
			continue
		}
		if contains(st.addr, int(st.size), ld.addr, int(ld.size)) {
			// Forwardable once the store data is ready.
			if st.dataUop >= 0 && s.doneAt[st.dataUop] > cycle {
				return true
			}
			return false
		}
		// Partial overlap: wait for commit.
		return true
	}
	return false
}

// loadExecuteG mirrors loadExecute on the graph representation.
func (s *eventState) loadExecuteG(g *Graph, loadID int32, l1d *cache.Cache, ctr *Counters, cpu *uarch.CPU) (extra uint64) {
	item := g.uopItem[loadID]
	ld := &g.loads[g.itemLoad[item]]

	// Store-to-load forwarding?
	for si := len(g.stores) - 1; si >= 0; si-- {
		st := &g.stores[si]
		if st.item >= item {
			continue
		}
		if s.storeRetired[si] {
			break
		}
		if contains(st.addr, int(st.size), ld.addr, int(ld.size)) {
			return uint64(cpu.FwdLatency - cpu.L1DLatency + 1)
		}
		if overlaps(ld.addr, int(ld.size), st.addr, int(st.size)) {
			break
		}
	}

	misses, split := l1d.AccessRange(ld.phys, int(ld.size))
	if misses > 0 {
		ctr.L1DReadMisses += uint64(misses)
		extra += uint64(cpu.MissPenalty)
	}
	if split {
		ctr.MisalignedLoads++
		extra += uint64(cpu.SplitPenalty)
	}
	return extra
}

// simulateFetchGraph mirrors simulateFetch on the graph representation.
func simulateFetchGraph(cpu *uarch.CPU, g *Graph, l1i *cache.Cache, ctr *Counters, ready []uint64) {
	var bytes uint64  // total code bytes fetched
	var stalls uint64 // accumulated I-cache miss cycles
	lastLine := uint64(math.MaxUint64)
	for i := 0; i < g.numItems; i++ {
		first := g.codePhys[i] / uint64(cpu.LineSize)
		last := (g.codePhys[i] + uint64(g.codeLen[i]) - 1) / uint64(cpu.LineSize)
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
		bytes += uint64(g.codeLen[i])
		ready[i] = bytes/16 + stalls
	}
}

// heapPush adds a packed entry to the completion min-heap.
func heapPush(h *[]uint64, v uint64) {
	s := append(*h, v)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

// heapPop removes and returns the minimum packed entry.
func heapPop(h *[]uint64) uint64 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && s[r] < s[l] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
