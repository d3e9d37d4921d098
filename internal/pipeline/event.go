package pipeline

import (
	"math"
	"math/bits"
	"sync"

	"bhive/internal/cache"
	"bhive/internal/portring"
	"bhive/internal/uarch"
)

// This file is the event-driven scheduler: the simulation core every
// timed run goes through. It computes bit-identical Counters to the
// reference cycle-by-cycle loop in reference.go (SimulateReference,
// cross-checked by FuzzSimulateEquivalence) but replaces the two
// per-cycle O(state) scans — the reservation-station walk and the
// retire-readiness walk — with a completion heap plus per-µop dependence
// counters, and skips runs of cycles in which nothing can happen.
//
// The determinism argument: every per-cycle decision in the reference loop
// compares a precomputed threshold against the current cycle — µop
// completion times (doneAt), fetch availability (fetchReady) and port
// busy-until times (portBusy). If a cycle makes no progress (nothing
// retires, allocates, or issues), no state changes, so every following
// cycle is identical until the earliest of those thresholds; jumping the
// clock straight there is unobservable. Cycles in which progress *does*
// happen advance by exactly one, because the per-cycle budgets (retire
// width, issue width, one µop per port) reset on cycle boundaries. No
// run draws random numbers: timer interrupts are not simulated (the
// profiler draws them per sample), so a run is a function of the graph
// and the caches alone.

// Completion-heap entries pack (doneAt << heapIDBits) | µop id, so the
// min-heap orders by completion time, ties by age. doneAt stays below
// maxCycles plus a few hundred cycles of latency (< 2^38) and µop ids are
// bounded by exec's step cap times a handful of µops each (< 2^26), so
// the packing is exact.
const (
	heapIDBits = 26
	heapIDMask = 1<<heapIDBits - 1
)

// schedArrays are the scheduler's per-run arrays. A pair run keeps a
// second set: the prefix run's state at the fork point.
type schedArrays struct {
	doneAt       []uint64 // per µop; MaxUint64 until issued
	pending      []int32  // per µop: producers not yet completed
	itemRemain   []int32  // per item: µops not yet completed
	itemAlloc    []bool
	storeRetired []bool
	ready        []int32  // allocated µops with pending == 0, sorted by id
	heap         []uint64 // completion min-heap (packed)
	portBusy     []uint64
}

// regs is the scheduler's scalar state at the start of a cycle or, in a
// fork snapshot, after the cycle's allocate stage.
type regs struct {
	cycle                                                          uint64
	nextAlloc, retired, robUsed, rsUsed, loadBufUsed, storeBufUsed int
	progress                                                       bool // the cycle has retired or allocated
}

// eventState holds the per-simulation mutable state of the event-driven
// scheduler; the immutable structure lives in the Graph. Pooled, so the
// steady-state path performs no heap allocation.
type eventState struct {
	schedArrays
	fetchReady []uint64
	newReady   []int32 // became ready during a completion drain
	mergeBuf   []int32
	scope      int32 // µops in scope: consumer edges at or past it are ignored

	// The prefix run's state where the pair run forks (SimulateGraphPair).
	fork     schedArrays
	forkRegs regs
	forkCtr  Counters
	forked   bool

	// The in-order pass (inorder.go): retirement cycles per item, load
	// and store, the loads' L1D replay keys and the port-reservation ring.
	retireAt, loadRet, storeRet, loadKeys []uint64
	ring                                  portring.Ring
}

var eventPool = sync.Pool{New: func() any { return new(eventState) }}

// SimulateGraph times a prebuilt µop graph on the CPU and returns the
// counters. The caller builds the Graph once per prepared program and
// reuses it across warm-up, both unroll factors, and every acceptance
// sample. l1i and l1d carry cache state across calls (warm-up vs. timed
// runs). Scheduler state is drawn from an internal pool, making the
// steady-state path allocation-free (see TestSimulateAllocs). It is
// SimulateGraphPair with no prefix.
func SimulateGraph(cpu *uarch.CPU, g *Graph, l1i, l1d *cache.Cache, cfg Config) Counters {
	hi, _, _ := SimulateGraphPair(cpu, g, 0, l1i, l1d, cfg)
	return hi
}

// SimulateGraphPair times g like SimulateGraph and, from the same pass,
// derives the counters a run of its prefix g.Slice(nLo) would return on
// the same caches. ok is true exactly when the full run misses in
// neither L1, for a proper prefix (0 < nLo < items). With ok false, lo is
// zero and the caller times the prefix on its own.
//
// The run takes the in-order pass (inorder.go) whenever that is exact:
// every data line of the trace resident in l1d, no item wider than the
// machine, no occupancy conflict and no cycle past the cap. Otherwise the
// event scheduler times it. Both give the same counters and leave the
// caches alike; SchedStats counts the runs by path, and so does
// cfg.Sched when set.
func SimulateGraphPair(cpu *uarch.CPU, g *Graph, nLo int, l1i, l1d *cache.Cache, cfg Config) (hi, lo Counters, ok bool) {
	st := eventPool.Get().(*eventState)
	defer eventPool.Put(st)
	return st.run(cpu, g, nLo, l1i, l1d, &cfg, true)
}

// SimulateEvent is SimulateGraphPair on the event scheduler alone, never
// the in-order pass, and counts no path. Only tests call it: they check
// the two paths against each other and against SimulateReference.
func SimulateEvent(cpu *uarch.CPU, g *Graph, nLo int, l1i, l1d *cache.Cache, cfg Config) (hi, lo Counters, ok bool) {
	st := eventPool.Get().(*eventState)
	defer eventPool.Put(st)
	return st.run(cpu, g, nLo, l1i, l1d, &cfg, false)
}

// run times g on the in-order pass when inOrder is set and the pass is
// exact, and on the event scheduler otherwise.
func (s *eventState) run(cpu *uarch.CPU, g *Graph, nLo int, l1i, l1d *cache.Cache, cfg *Config, inOrder bool) (hi, lo Counters, ok bool) {
	n := g.numItems
	hi.Instructions = uint64(n)
	if n == 0 {
		return hi, lo, false
	}
	nu := g.numUops
	hi.Uops = uint64(nu)

	// The front end only reads the L1I, before any scheduling: both
	// paths share its fetchReady.
	s.fetchReady = grow(s.fetchReady, n)
	simulateFetchGraph(cpu, g, l1i, &hi, s.fetchReady)

	fork := -1
	if nLo > 0 && nLo < n {
		fork = nLo
	}
	if inOrder {
		path, derive := PathNotResident, false
		if resident(g, n, l1d) {
			// With every data line resident only an L1I miss of the
			// fetch pass can keep the pair from deriving.
			derive = fork > 0 && hi.L1IMisses == 0
			path = s.inOrder(cpu, g, nLo, derive, l1d, &hi, &lo)
		}
		countPath(cfg, path)
		if path == PathInOrder {
			return hi, lo, derive
		}
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
	clear(s.storeRetired)
	s.ready = s.ready[:0]
	s.newReady = s.newReady[:0]
	s.heap = s.heap[:0]
	s.portBusy = grow(s.portBusy, cpu.NumPorts)
	clear(s.portBusy)
	s.scope = int32(nu)
	s.forked = false

	hi.Cycles = s.schedule(cpu, g, n, l1d, &hi, regs{}, fork, false)
	if fork < 0 || hi.L1DReadMisses+hi.L1DWriteMisses+hi.L1IMisses > 0 {
		return hi, lo, false
	}

	// The fetch pass is not repeated: the prefix's fetchReady entries are
	// the full run's, and with no L1I miss the prefix fetch counts nothing.
	nuLo := g.itemFirstUop[nLo]
	if !s.forked {
		// The full run hit the cycle cap before it reached item nLo, so
		// the prefix run was the same run throughout.
		lo = hi
		lo.Instructions, lo.Uops = uint64(nLo), uint64(nuLo)
		return hi, lo, true
	}
	// Resume the prefix run on its own arrays.
	s.schedArrays, s.fork = s.fork, s.schedArrays
	s.scope = nuLo
	lo = s.forkCtr
	lo.Instructions, lo.Uops = uint64(nLo), uint64(nuLo)
	lo.Cycles = s.schedule(cpu, g, nLo, l1d, &lo, s.forkRegs, -1, true)
	return hi, lo, true
}

// schedule runs the cycle loop over the first n items of g from the
// scalar state r and returns the final cycle. With fork > 0 it snapshots
// the state into s.fork the first time the allocate stage reaches item
// fork; resume starts the first cycle at the issue stage, continuing
// such a snapshot.
func (s *eventState) schedule(cpu *uarch.CPU, g *Graph, n int, l1d *cache.Cache, ctr *Counters, r regs, fork int, resume bool) uint64 {
	var (
		cycle        = r.cycle
		nextAlloc    = r.nextAlloc
		retired      = r.retired
		robUsed      = r.robUsed
		rsUsed       = r.rsUsed
		loadBufUsed  = r.loadBufUsed
		storeBufUsed = r.storeBufUsed
		progress     = r.progress

		retireBudget, allocBudget int
	)
	fetchReady, doneAt, pending := s.fetchReady, s.doneAt, s.pending
	itemRemain, itemAlloc, storeRetired, portBusy := s.itemRemain, s.itemAlloc, s.storeRetired, s.portBusy
	// Before the fork the allocate stage stops at the fork item.
	allocEnd := n
	if fork > 0 {
		allocEnd = fork
	}
	// Only µops with an occupancy (the non-pipelined units) set a port
	// busy. maxBusy is the latest busy-until, so no port scan is needed
	// while no busy window is open at all.
	allPorts := uarch.PortSet(1<<cpu.NumPorts - 1)
	var maxBusy uint64
	for _, b := range portBusy {
		maxBusy = max(maxBusy, b)
	}

	for retired < n && cycle < maxCycles {
		if resume {
			resume = false
			goto issue
		}

		// Process completions whose time has come, before retire/issue
		// look at them — matching the reference's "doneAt <= cycle" tests.
		for len(s.heap) > 0 && s.heap[0]>>heapIDBits <= cycle {
			s.complete(g, int32(heapPop(&s.heap)&heapIDMask))
		}
		if len(s.newReady) > 0 {
			s.mergeReady()
		}

		progress = false

		// Retire (in order, RetireWidth fused µops per cycle).
		retireBudget = cpu.RetireWidth
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
		allocBudget = cpu.IssueWidth
		for {
			for nextAlloc < allocEnd && allocBudget > 0 {
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
						// Allocation is in µop-id order, so appending
						// keeps the ready list sorted.
						s.ready = append(s.ready, id)
					}
				}
				nextAlloc++
				progress = true
			}
			if nextAlloc != fork {
				break
			}
			// The prefix run's allocate stage ends here; the full run
			// reads item fork next.
			s.snapshot(g, fork, ctr, regs{cycle, nextAlloc, retired,
				robUsed, rsUsed, loadBufUsed, storeBufUsed, progress})
			fork, allocEnd = -1, n
		}

	issue:
		// Issue (oldest first, one µop per port per cycle). The ready list
		// holds exactly the allocated µops whose producers have completed,
		// in age order — the subset of the reference's reservation-station
		// scan that can possibly issue. free holds the ports neither busy
		// nor taken this cycle; each µop takes its lowest free allowed
		// port, the reference's first-free choice.
		free := allPorts
		if maxBusy > cycle {
			free = 0
			for p := 0; p < cpu.NumPorts; p++ {
				if portBusy[p] <= cycle {
					free |= 1 << p
				}
			}
		}
		ready := s.ready
		w := 0
		for idx := 0; idx < len(ready); idx++ {
			if free == 0 {
				// No port left: nothing else can issue this cycle.
				w += copy(ready[w:], ready[idx:])
				break
			}
			id := ready[idx]
			spec := &g.uopSpec[id]
			avail := spec.Ports & free
			if avail == 0 || spec.Class == uarch.ClassLoad && s.loadBlockedG(g, id, cycle) {
				ready[w] = id
				w++
				continue
			}
			port := bits.TrailingZeros16(uint16(avail))
			free &^= 1 << port
			ctr.PortUops[port]++
			if spec.Occupancy > 0 {
				portBusy[port] = cycle + uint64(spec.Occupancy)
				maxBusy = max(maxBusy, portBusy[port])
			}
			lat := uint64(spec.Lat)
			if spec.Class == uarch.ClassLoad {
				lat += s.loadExecuteG(g, id, l1d, ctr, cpu)
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
		// against.
		next := uint64(math.MaxUint64)
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
		if maxBusy > cycle {
			for p := 0; p < cpu.NumPorts; p++ {
				if b := portBusy[p]; b > cycle && b < next {
					next = b
				}
			}
		}
		if next > maxCycles {
			// Deadlock or far-future event: the reference spins to the
			// cycle cap one cycle at a time; land exactly there.
			next = maxCycles
		}
		cycle = next
	}
	return cycle
}

// snapshot records the prefix run of the first nLo items at its fork
// point: the scalars, the counters so far, the prefix of every per-µop and
// per-item array, the ready list, the completion heap and the port
// timers. Nothing at or past item nLo has been allocated yet, so the ready
// list and the heap hold prefix µops only.
func (s *eventState) snapshot(g *Graph, nLo int, ctr *Counters, r regs) {
	nu, ns := g.itemFirstUop[nLo], g.storePrefix[nLo]
	f := &s.fork
	f.doneAt = append(f.doneAt[:0], s.doneAt[:nu]...)
	f.pending = append(f.pending[:0], s.pending[:nu]...)
	f.itemRemain = append(f.itemRemain[:0], s.itemRemain[:nLo]...)
	f.itemAlloc = append(f.itemAlloc[:0], s.itemAlloc[:nLo]...)
	f.storeRetired = append(f.storeRetired[:0], s.storeRetired[:ns]...)
	f.ready = append(f.ready[:0], s.ready...)
	f.heap = append(f.heap[:0], s.heap...)
	f.portBusy = append(f.portBusy[:0], s.portBusy...)
	s.forkRegs, s.forkCtr, s.forked = r, *ctr, true
}

// complete processes one µop completion: its item is one µop closer to
// retirement, and consumers with no remaining producers become ready.
// Consumer edges can point past the run's scope (a prefix slice, or the
// prefix run of a pair) and are skipped.
func (s *eventState) complete(g *Graph, id int32) {
	s.itemRemain[g.uopItem[id]]--
	for _, c := range g.cons[g.consLo[id]:g.consHi[id]] {
		if c >= s.scope {
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
		if c >= s.scope {
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

// loadBlockedG mirrors loadBlocked on the graph representation. It has no
// side effects. Like loadExecuteG it scans only the stores older than the
// load's item — the reference's scan skips the younger ones — starting at
// the youngest of them.
func (s *eventState) loadBlockedG(g *Graph, loadID int32, cycle uint64) bool {
	item := g.uopItem[loadID]
	ld := &g.loads[g.itemLoad[item]]
	for si := g.storePrefix[item] - 1; si >= 0; si-- {
		st := &g.stores[si]
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
	for si := g.storePrefix[item] - 1; si >= 0; si-- {
		st := &g.stores[si]
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
// It splits code into lines with the L1I's line shift, which is exact:
// the cache is built with the CPU's line size, a power of two.
func simulateFetchGraph(cpu *uarch.CPU, g *Graph, l1i *cache.Cache, ctr *Counters, ready []uint64) {
	var bytes uint64  // total code bytes fetched
	var stalls uint64 // accumulated I-cache miss cycles
	lastLine := uint64(math.MaxUint64)
	shift := lineShift(l1i)
	codePhys, codeLen := g.codePhys[:g.numItems], g.codeLen[:g.numItems]
	ready = ready[:len(codePhys)]
	for i, phys := range codePhys {
		first := phys >> shift
		last := (phys + uint64(codeLen[i]) - 1) >> shift
		for line := first; line <= last; line++ {
			if line == lastLine {
				continue
			}
			lastLine = line
			if !l1i.Access(line << shift) {
				ctr.L1IMisses++
				stalls += uint64(cpu.MissPenalty)
			}
		}
		bytes += uint64(codeLen[i])
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
