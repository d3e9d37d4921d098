package pipeline

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"bhive/internal/cache"
	"bhive/internal/uarch"
)

// This file is the in-order pass: the exact shortcut every timed run takes
// when it can, with the event scheduler (event.go) as the fallback. In the
// machine an older µop always wins a port over a younger one, since the
// issue stage scans the ready µops oldest first; allocation and
// retirement are in order; and with every data line resident in the L1D
// no access can miss, so the cache cannot delay a load. The cycle in which
// an item allocates, a µop issues or an item retires is then fixed by the
// items and µops older than it, and one pass in id order derives them all
// without running the cycle loop. The one exception is a non-pipelined
// unit: a younger µop's occupancy window can close a port an older µop
// would otherwise take. The pass detects that case and leaves the run to
// the event scheduler.
//
// The pass places each µop in a per-cycle port-reservation ring, the
// machine's version of the models' reservation table (models/inorder.go).
// Within a cycle the event loop's stages run complete, retire, allocate,
// issue, and the pass reproduces their rules:
//
//   - Item i allocates in the first cycle, at or after item i−1's, in
//     which its fetch is ready, the cycle's remaining issue width is
//     positive and covers its fused count, the ROB and the load and
//     store buffers have room after the retirements at or before the
//     cycle, and the reservation station has room after the issues
//     before it.
//   - A µop issues in the first cycle at or after its allocation and its
//     producers' completions in which one of its ports is neither taken
//     by an older µop nor inside an older µop's occupancy window, on the
//     lowest such port. A load also waits until no older overlapping
//     store blocks it, and takes the forwarding or split extra latency
//     its issue cycle decides.
//   - Item i retires in order, RetireWidth fused µops per cycle (a wide
//     item in a fresh cycle), at the earliest one cycle after it
//     allocated and once every µop has completed: a zero-latency µop
//     completes in its issue stage, after that cycle's retire stage.
//
// The schedule of the first nLo items does not depend on the younger
// ones, so a pair run reads the low factor's counters at item nLo−1 and
// needs no second drain. The L1D accesses are replayed afterwards in the
// event loop's order — by cycle, the retire stage's store commits before
// the issue stage's loads, each oldest first — so both caches end exactly
// as the event scheduler leaves them.

// Path is how one timed run was scheduled: by the in-order pass, or by
// the event scheduler for the reason named.
type Path int

const (
	// PathInOrder: the in-order pass timed the run.
	PathInOrder Path = iota
	// PathConflict: a younger µop's occupancy window covers an older
	// µop already placed on that port.
	PathConflict
	// PathNotResident: a data line of the trace is not resident in the
	// L1D, so an access could miss and cycle order would matter.
	PathNotResident
	// PathOverWide: an item is wider than the issue width, the ROB, the
	// reservation station or a memory buffer.
	PathOverWide
	// PathCycleCap: a cycle would pass the run's cycle cap, or a µop has
	// no port or the machine no retire width, so the event scheduler
	// spins to the cap.
	PathCycleCap
	// NumPaths is the number of paths.
	NumPaths
)

var pathNames = [NumPaths]string{"in-order", "conflict", "not-resident", "over-wide", "cycle-cap"}

func (p Path) String() string { return pathNames[p] }

// SchedCounters counts timed runs by Path.
type SchedCounters [NumPaths]uint64

// schedPaths counts every timed run of the process by Path.
var schedPaths [NumPaths]atomic.Uint64

// SchedStats returns the process's timed runs by path.
func SchedStats() SchedCounters {
	var c SchedCounters
	for p := range c {
		c[p] = schedPaths[p].Load()
	}
	return c
}

// Fallbacks returns the runs the event scheduler timed.
func (c SchedCounters) Fallbacks() uint64 {
	var n uint64
	for _, v := range c[PathInOrder+1:] {
		n += v
	}
	return n
}

// Sub returns the runs counted in c and not in prev.
func (c SchedCounters) Sub(prev SchedCounters) SchedCounters {
	for p := range c {
		c[p] -= prev[p]
	}
	return c
}

// String renders the counts as "in-order=N conflict=N ...".
func (c SchedCounters) String() string {
	var sb strings.Builder
	for p, v := range c {
		if p > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", Path(p), v)
	}
	return sb.String()
}

// countPath records one timed run's path, process-wide and in cfg's sink.
func countPath(cfg *Config, p Path) {
	schedPaths[p].Add(1)
	if cfg.Sched != nil {
		cfg.Sched[p]++
	}
}

// Load replay keys pack (cycle << 26) | µop id; store keys are store
// indices. Cycles stay below maxCycles < 2^26 and µop ids below 2^26
// (heapIDBits).
const keyIdx = 1<<heapIDBits - 1

// lineShift is log2 of c's line size, a power of two (cache.Reshape).
func lineShift(c *cache.Cache) uint { return uint(bits.TrailingZeros(uint(c.LineSize()))) }

// splits reports whether [phys, phys+size) crosses a line boundary.
func splits(phys uint64, size int32, shift uint) bool {
	return phys>>shift != (phys+uint64(size)-1)>>shift
}

// resident reports whether every data line the first n items of g load or
// store is resident in l1d.
func resident(g *Graph, n int, l1d *cache.Cache) bool {
	shift := lineShift(l1d)
	// seen holds line+1 of lines found resident, by line mod 64: an
	// unrolled block touches the same few lines over and over.
	var seen [64]uint64
	holds := func(phys uint64, size int32) bool {
		for line := phys >> shift; line <= (phys+uint64(size)-1)>>shift; line++ {
			if seen[line&63] == line+1 {
				continue
			}
			if !l1d.Holds(line<<shift, 1) {
				return false
			}
			seen[line&63] = line + 1
		}
		return true
	}
	for i := 0; i < n; i++ {
		if li := g.itemLoad[i]; li >= 0 && !holds(g.loads[li].phys, g.loads[li].size) {
			return false
		}
	}
	for k := range g.stores[:g.numStores] {
		if !holds(g.stores[k].phys, g.stores[k].size) {
			return false
		}
	}
	return true
}

// placed is what the in-order pass leaves for the caller: the port and
// misalignment counts of the run, and the prefix's counters and the cycle
// of its fork.
type placed struct {
	ctr, lo Counters
	forkAt  uint64 // item nLo−1's allocation cycle
	shift   uint   // the L1D's line shift
}

// inOrder times g with the in-order pass into hi and, with derive set,
// its prefix of nLo items into lo; hi's fetch counters are already set.
// Every data line is resident in l1d. On PathInOrder it has replayed the
// L1D accesses of the event scheduler's run (and of its prefix run, with
// derive); on any other path it has touched neither the caches nor the
// counters, and the event scheduler must time the run.
func (s *eventState) inOrder(cpu *uarch.CPU, g *Graph, nLo int, derive bool, l1d *cache.Cache, hi, lo *Counters) Path {
	if cpu.IssueWidth < 1 {
		return PathOverWide
	}
	if cpu.RetireWidth < 1 {
		return PathCycleCap
	}
	n := g.numItems
	s.doneAt = grow(s.doneAt, g.numUops)
	s.retireAt = grow(s.retireAt, n)
	s.loadRet = grow(s.loadRet, len(g.loads))
	s.storeRet = grow(s.storeRet, g.numStores)
	s.loadKeys = s.loadKeys[:0]
	var p placed
	path := s.place(cpu, g, nLo, derive, l1d, &p)
	s.ring.Clear()
	if path != PathInOrder {
		return path
	}

	// Replay the L1D accesses in the event loop's order: by cycle, the
	// retire stage's store commits, then the issue stage's loads. Store
	// commits are in order already; loads are nearly so.
	loads := s.loadKeys
	if !slices.IsSorted(loads) {
		slices.Sort(loads)
	}
	s.replay(g, l1d, loads, uint64(g.numStores), uint64(g.numUops), 0)
	if derive {
		// The event scheduler's pair then resumes the prefix run at the
		// issue stage of the cycle item nLo−1 allocated in, and repeats
		// the prefix's accesses from there: its loads issued in that
		// cycle or later and its stores committed after it.
		s.replay(g, l1d, loads, uint64(g.storePrefix[nLo]), uint64(g.itemFirstUop[nLo]), p.forkAt)
	}
	hi.Cycles = s.retireAt[n-1] + 1
	hi.PortUops, hi.MisalignedLoads, hi.MisalignedStores = p.ctr.PortUops, p.ctr.MisalignedLoads, p.ctr.MisalignedStores
	*lo = p.lo
	return PathInOrder
}

// place is the in-order pass proper: it places every µop of g and fills
// doneAt, retireAt, loadRet, storeRet, the load replay keys and p. It
// returns PathInOrder, or the reason the event scheduler must time g.
func (s *eventState) place(cpu *uarch.CPU, g *Graph, nLo int, derive bool, l1d *cache.Cache, p *placed) Path {
	// Everything the loop reads is held in locals: through g, s and cpu
	// the compiler would reload it after every store.
	n := g.numItems
	fetchReady, retireAt, loadRet, storeRet := s.fetchReady[:n], s.retireAt[:n], s.loadRet, s.storeRet
	itemFused, itemFirstUop, itemLoad, itemStore := g.itemFused[:n], g.itemFirstUop[:n+1], g.itemLoad[:n], g.itemStore[:n]
	stores := g.stores
	issueWidth, retireWidth := cpu.IssueWidth, cpu.RetireWidth
	robSize, rsSize, loadBufs, storeBufs := cpu.ROBSize, cpu.RSSize, cpu.LoadBufs, cpu.StoreBufs
	maxFused, noBufs := min(issueWidth, robSize), loadBufs < 1 || storeBufs < 1
	shift := lineShift(l1d)
	p.shift = shift
	ring := &s.ring
	is := issuer{valid: uarch.PortSet(1<<cpu.NumPorts - 1)}

	var (
		at      uint64 // allocation cycle: the ring holds cycles from at on
		gone    int    // µops issued before at
		budget  = issueWidth
		rsUsed  int // µops allocated, less gone
		robPtr  int // items whose ROB slots were counted free
		robUsed int // fused µops of items robPtr..i−1
		lbPtr   int // loads whose buffer slots were counted free
		sbPtr   int // stores likewise
		rCycle  uint64
		rBudget int // retire width left in rCycle
	)
	for i := 0; i < n; i++ {
		f := int(itemFused[i])
		first, next := itemFirstUop[i], itemFirstUop[i+1]
		nExec := int(next - first)
		li, si := itemLoad[i], itemStore[i]
		if f > maxFused || nExec > rsSize || noBufs && (li >= 0 && loadBufs < 1 || si >= 0 && storeBufs < 1) {
			return PathOverWide
		}

		// Allocate: fetch, then the ROB and buffer slots older items
		// free when they retire (the retire stage runs first).
		c := fetchReady[i]
		for robUsed+f > robSize {
			c = max(c, retireAt[robPtr])
			robUsed -= int(itemFused[robPtr])
			robPtr++
		}
		if li >= 0 {
			for int(li)-lbPtr >= loadBufs {
				c = max(c, loadRet[lbPtr])
				lbPtr++
			}
		}
		if si >= 0 {
			for int(si)-sbPtr >= storeBufs {
				c = max(c, storeRet[sbPtr])
				sbPtr++
			}
		}
		// Moving the allocation cycle on retires the rows it passes: their
		// µops have left the RS, and no µop is placed before at again.
		if c > at {
			gone += ring.Advance(c)
			at, budget = c, issueWidth
		}
		// RS slots free at issue, which follows allocation in a cycle.
		for budget <= 0 || f > budget || rsUsed-gone+nExec > rsSize {
			at++
			gone += ring.Advance(at)
			budget = issueWidth
		}
		if at >= maxCycles {
			return PathCycleCap
		}
		alloc := at
		budget -= f
		robUsed += f
		rsUsed += nExec

		// Issue each µop in id order.
		done, path := is.issue(s, cpu, g, i, li, first, next, at, p)
		if path != PathInOrder {
			return path
		}

		// Retire in order, RetireWidth fused µops a cycle; a wide item
		// retires alone in a fresh cycle.
		e := max(done, rCycle)
		if e == rCycle && (rBudget <= 0 || f > rBudget && rBudget < retireWidth) {
			e++
		}
		if e >= maxCycles {
			return PathCycleCap
		}
		if e > rCycle {
			rCycle, rBudget = e, retireWidth
		}
		rBudget -= f
		retireAt[i] = e
		if li >= 0 {
			loadRet[li] = e
		}
		if si >= 0 {
			storeRet[si] = e
			if st := &stores[si]; splits(st.phys, st.size, shift) {
				p.ctr.MisalignedStores++
			}
		}
		if derive && i == nLo-1 {
			p.forkAt = alloc
			p.lo = p.ctr
			p.lo.Instructions, p.lo.Uops, p.lo.Cycles, p.lo.PortUops = uint64(nLo), uint64(next), e+1, is.portUops
		}
	}
	p.ctr.PortUops = is.portUops
	return PathInOrder
}

// storeGate returns the cycle from which item i's load (load index li),
// ready at ready, may issue as far as older stores allow, and the store it
// forwards from if it issues before that store commits (−1 for none). The
// youngest older store overlapping the load decides it while uncommitted:
// a partial overlap blocks the load until the store commits, a containing
// store until its data is ready, and then forwards. Once a store has
// committed, so have the older ones.
func (s *eventState) storeGate(g *Graph, i int, li int32, ready uint64) (uint64, int32) {
	ld := &g.loads[li]
	storeRet := s.storeRet
	for k := g.storePrefix[i] - 1; k >= 0 && storeRet[k] > ready; k-- {
		st := &g.stores[k]
		if !overlaps(ld.addr, int(ld.size), st.addr, int(st.size)) {
			continue
		}
		if !contains(st.addr, int(st.size), ld.addr, int(ld.size)) {
			return storeRet[k], -1 // later than ready: the scan got here
		}
		if st.dataUop >= 0 {
			ready = max(ready, min(s.doneAt[st.dataUop], storeRet[k]))
		}
		return ready, k
	}
	return ready, -1
}

// loadExtra returns the latency a load µop id (load index li) adds to
// its base latency when it issues in cycle cyc: the forwarding extra while
// store fwd has not committed, else the split penalty of a line-crossing
// access, which it counts in p. A load that does not forward reads the
// L1D: its replay key is recorded.
func (s *eventState) loadExtra(cpu *uarch.CPU, g *Graph, li, id int32, fwd int32, cyc uint64, p *placed) uint64 {
	if fwd >= 0 && s.storeRet[fwd] > cyc {
		return uint64(cpu.FwdLatency - cpu.L1DLatency + 1)
	}
	s.loadKeys = append(s.loadKeys, cyc<<heapIDBits|uint64(id))
	if ld := &g.loads[li]; splits(ld.phys, ld.size, p.shift) {
		p.ctr.MisalignedLoads++
		return uint64(cpu.SplitPenalty)
	}
	return 0
}

// issuer is the in-order pass's issue stage apart from the ring: the
// dependence cursor and the port counts. It is kept apart from the
// allocation and retire state, so fewer values are live in the µop loop.
type issuer struct {
	dp       int32 // the next µop's first producer in g.deps
	valid    uarch.PortSet
	portUops [16]uint64
}

// issue places µops first..next−1 of item i (load index li), allocated in
// cycle at, in id order, and returns the earliest cycle the item may
// retire in: one after its allocation, and once every µop has completed
// (a zero-latency µop completes in its issue stage, after that cycle's
// retire stage). The path is PathInOrder, or the reason the event
// scheduler must time the run.
func (is *issuer) issue(s *eventState, cpu *uarch.CPU, g *Graph, i int, li int32, first, next int32, at uint64, p *placed) (uint64, Path) {
	ring, dp, valid := &s.ring, is.dp, is.valid
	uopSpec, depHi, deps, doneAt := g.uopSpec[:next], g.depHi[:next], g.deps, s.doneAt[:next]
	done := at + 1
	path := PathInOrder
	for id := first; id < next; id++ {
		u := &uopSpec[id]
		ports := u.Ports & valid
		if ports == 0 {
			path = PathCycleCap // never issues
			break
		}
		// Build appends each µop's producers after the last one's, so
		// µop id's are deps[dp:depHi[id]] as the pass walks them in order.
		ready := at
		for end := depHi[id]; dp < end; dp++ {
			ready = max(ready, doneAt[deps[dp]])
		}
		load := u.Class == uarch.ClassLoad
		fwd := int32(-1)
		if load {
			ready, fwd = s.storeGate(g, i, li, ready)
		}
		// Take the first row from ready with one of the ports free; the
		// ring is called out of line only for a full row or a window.
		cyc := ready
		bit, ok := ring.TryPlace(ready, ports, int(u.Occupancy))
		if !ok {
			var conflict bool
			if cyc, bit, conflict = ring.Place(ready, ports, int(u.Occupancy)); conflict {
				path = PathConflict // the older µop would have moved
				break
			}
		}
		is.portUops[bits.TrailingZeros16(uint16(bit))&15]++
		lat := uint64(u.Lat)
		if load {
			lat += s.loadExtra(cpu, g, li, id, fwd, cyc, p)
		}
		doneAt[id] = cyc + lat
		done = max(done, cyc+max(lat, 1))
	}
	is.dp = dp
	return done, path
}

// replay makes, in the event loop's order, the L1D accesses of the stores
// with index below ns that commit after cycle from and of the loads with
// µop id below nu (keys, sorted) that issue at or after it: by cycle,
// store commits before loads. Store k commits at storeRet[k].
func (s *eventState) replay(g *Graph, l1d *cache.Cache, keys []uint64, ns, nu, from uint64) {
	stores, storeRet := g.stores[:ns], s.storeRet
	k := 0
	for k < len(stores) && storeRet[k] <= from {
		k++
	}
	for _, key := range keys {
		cyc, id := key>>heapIDBits, key&keyIdx
		if cyc < from || id >= nu {
			continue
		}
		for ; k < len(stores) && storeRet[k] <= cyc; k++ {
			l1d.AccessRange(stores[k].phys, int(stores[k].size))
		}
		ld := &g.loads[g.itemLoad[g.uopItem[id]]]
		l1d.AccessRange(ld.phys, int(ld.size))
	}
	for ; k < len(stores); k++ {
		l1d.AccessRange(stores[k].phys, int(stores[k].size))
	}
}
