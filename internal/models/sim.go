package models

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"bhive/internal/portring"
	"bhive/internal/uarch"
)

// simUop is a micro-op in the model's view of the machine.
type simUop struct {
	ports     uarch.PortSet
	lat       int
	occ       int  // non-pipelined unit occupancy
	isLoad    bool // load µops depend only on address registers
	class     uarch.UopClass
	fusedLoad bool // a load folded into this µop (one scheduling unit)
}

// name is the µop's label in a schedule trace.
func (u *simUop) name() string {
	if u.fusedLoad {
		return "load+" + u.class.String()
	}
	return u.class.String()
}

// simInst is a model's description of one instruction.
type simInst struct {
	uops  []simUop
	fused int

	addr, data, writes []uint8

	zeroIdiom bool
	elimMove  bool
	text      string // set only when the caller traces the schedule
}

const (
	simRegs      = 33
	simWindow    = 192        // ROB-ish bound on in-flight (unissued) µops
	simMaxCycles = 10_000_000 // runaway guard
)

var (
	errEmptyBlock = fmt.Errorf("models: empty basic block")
	errSimStalled = errors.New("models: simulation stalled: an instruction can never allocate or a µop can never issue")
	errSimRunaway = fmt.Errorf("models: simulation exceeded %d cycles", simMaxCycles)
)

// wiredUop is one unrolled µop in the dependence arena.
type wiredUop struct {
	ports    uarch.PortSet // issue ports, restricted to the machine's
	lat, occ int32
	deps     int32 // producer edges, with multiplicity: the initial pending count
	inst     int32 // unrolled instruction index
}

// simScratch holds the dependence arena of one block and the state of the
// schedulers that run over it. Both live in a Scratch and are reused for
// every block its owner predicts, so a prediction allocates nothing here
// once the scratch has grown.
type simScratch struct {
	// Wiring, built once per block for the largest unroll. µop ids are
	// contiguous per unrolled instruction, so the wiring for k copies is
	// the id prefix [0, start[k·len)) of the wiring for any larger count.
	// The template covers only the copies wired explicitly; unroll and
	// reverse complete the arena for the event loop.
	start    []int32 // start[k]: first µop id of unrolled instruction k
	uops     []wiredUop
	deps     []int32 // producer ids, grouped by consumer in id order
	copyEdge []int32 // copyEdge[c]: first edge of explicitly wired copy c
	revOff   []int32 // consumers of µop p: rev[revOff[p]:revOff[p+1]]
	rev      []int32 // consumer ids, ascending within each producer

	// Scheduler state, reset by every run.
	pending []int32  // unissued producers of each µop
	readyAt []int64  // max doneAt over each µop's issued producers
	ready   []int32  // allocated µops whose inputs are ready, oldest first
	merge   []int32  // second buffer for merging wake-ups into ready
	heap    []uint64 // readyAt<<32 | id, for µops waiting on latency

	// In-order pass state (inorder.go).
	done []int32       // completion cycle of each µop
	ring portring.Ring // port reservations by cycle

	// fork is a shorter run's state, saved from a longer one (eventPair).
	fork fork
}

// evState is the event loop's state between cycles, apart from the
// scheduler's arrays.
type evState struct {
	cycle, lastDone int64
	inFlight        int       // allocated, unissued µops
	completed       int32     // issued µops
	portBusy        [16]int64 // cycle until which each port is busy
	maxBusy         int64     // latest portBusy entry
}

// fork is the state of a run of fewer copies, taken from a run of more at
// the point where the shorter run's allocation stops: µop ids are
// allocated in order, so until then both runs are the same run on the
// shorter run's id prefix. The longer run's wake-ups of µops beyond the
// prefix touch only their own pending and readyAt entries, which the
// shorter run never reads.
type fork struct {
	insts int   // unrolled instructions of the shorter run
	uops  int32 // their µops
	// done: the shorter run issued its last µop before its allocation
	// stopped, and c is its cycle count. Otherwise the state below is
	// where its allocation stopped.
	done bool
	c    int64

	st      evState
	pending []int32
	readyAt []int64
	ready   []int32
	heap    []uint64
}

// resize returns b with length n, reallocating only when it must grow,
// and then at least twofold, so a scratch that meets ever larger blocks
// reallocates a logarithmic number of times. The contents are
// unspecified.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

// reserve returns b with room for extra more elements, growing it like
// resize.
func reserve[T any](b []T, extra int) []T {
	if n := len(b) + extra; cap(b) < n {
		return append(make([]T, 0, max(n, 2*cap(b))), b...)
	}
	return b
}

// appendProducers appends the current producer of each register in regs.
func appendProducers(deps []int32, lastWriter *[simRegs]int32, regs []uint8) []int32 {
	for _, r := range regs {
		if p := lastWriter[r]; p >= 0 {
			deps = append(deps, p)
		}
	}
	return deps
}

// wireInst appends unrolled instruction k, a copy of in, to the arena:
// its µops, their producer edges, and its entry in start. lastWriter maps
// each register to the µop that last wrote it, or -1.
func (s *simScratch) wireInst(in *simInst, k int, lastWriter *[simRegs]int32, valid uarch.PortSet) {
	s.start = append(s.start, int32(len(s.uops)))
	if in.zeroIdiom {
		for _, w := range in.writes {
			lastWriter[w] = -1
		}
		return
	}
	if in.elimMove {
		src := int32(-1)
		if len(in.data) > 0 {
			src = lastWriter[in.data[0]]
		}
		for _, w := range in.writes {
			lastWriter[w] = src
		}
		return
	}
	hasLoad := false
	for u := range in.uops {
		hasLoad = hasLoad || in.uops[u].isLoad
	}
	var last, loadID int32 = -1, -1
	for u := range in.uops {
		spec := &in.uops[u]
		d0 := len(s.deps)
		if spec.isLoad {
			// Loads wait only on address registers — this is what lets
			// hardware (and IACA) hoist an independent load ahead of
			// the dependent computation that consumes it.
			s.deps = appendProducers(s.deps, lastWriter, in.addr)
		} else {
			s.deps = appendProducers(s.deps, lastWriter, in.data)
			if !hasLoad {
				// Store-address computation and fused load+op shapes
				// consume the addressing registers directly.
				s.deps = appendProducers(s.deps, lastWriter, in.addr)
			}
			if loadID >= 0 {
				s.deps = append(s.deps, loadID)
			}
			if last >= 0 {
				s.deps = append(s.deps, last)
			}
		}
		id := int32(len(s.uops))
		s.uops = append(s.uops, wiredUop{
			ports: spec.ports & valid,
			lat:   int32(spec.lat),
			occ:   int32(spec.occ),
			deps:  int32(len(s.deps) - d0),
			inst:  int32(k),
		})
		if spec.isLoad {
			loadID = id
		} else {
			last = id
		}
	}
	if len(in.uops) > 0 {
		for _, w := range in.writes {
			lastWriter[w] = int32(len(s.uops) - 1)
		}
	}
}

// wire unrolls copies of the block and builds its dependence arena: it
// wires the template, then unrolls the remaining copies from it.
func (s *simScratch) wire(insts []simInst, copies, nports int) {
	s.template(insts, copies, uarch.PortSet(1)<<nports-1)
	s.unroll(insts, copies)
}

// relState returns the last-writer state relative to base, the first µop
// id after a copy boundary; registers with no writer map to MinInt32.
func relState(lastWriter *[simRegs]int32, base int32) [simRegs]int32 {
	var rel [simRegs]int32
	for r, w := range lastWriter {
		rel[r] = math.MinInt32
		if w >= 0 {
			rel[r] = w - base
		}
	}
	return rel
}

// template wires copies of the block, forward edges only, until the
// last-writer state at a copy boundary, relative to the boundary's first
// µop id, equals the previous boundary's. Every later copy then wires like
// the one before it shifted by the per-copy µop count, so copy c > tmpl
// reads copy tmpl's edges shifted by (c−tmpl)·U. The state, not the edges,
// is compared: an eliminated move aliases a register without an edge. It
// wires at most copies copies and returns tmpl; s.copyEdge[c] is the first
// edge of copy c for every wired copy, and s.copyEdge[tmpl+1] ends tmpl's.
func (s *simScratch) template(insts []simInst, copies int, valid uarch.PortSet) int {
	s.start, s.uops, s.deps = s.start[:0], s.uops[:0], s.deps[:0]
	s.copyEdge = s.copyEdge[:0]
	var lastWriter [simRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	prev := relState(&lastWriter, 0)
	c := 0
	for ; ; c++ {
		s.copyEdge = append(s.copyEdge, int32(len(s.deps)))
		for i := range insts {
			s.wireInst(&insts[i], c*len(insts)+i, &lastWriter, valid)
		}
		if c == copies-1 {
			break
		}
		cur := relState(&lastWriter, int32(len(s.uops)))
		if cur == prev {
			break
		}
		prev = cur
	}
	s.copyEdge = append(s.copyEdge, int32(len(s.deps)))
	s.start = append(s.start, int32(len(s.uops)))
	return c
}

// unroll extends the template (copies 0 through tmpl) to copies copies,
// each later copy repeating copy tmpl's µops and edges shifted by the
// per-copy µop count, and builds the reverse edges.
func (s *simScratch) unroll(insts []simInst, copies int) {
	L := len(insts)
	tmpl := len(s.copyEdge) - 2
	U := s.start[L]
	s.start = s.start[:(tmpl+1)*L]
	more := copies - tmpl - 1
	s.start = reserve(s.start, more*L+1)
	s.uops = reserve(s.uops, more*int(U))
	s.deps = reserve(s.deps, more*len(s.deps[s.copyEdge[tmpl]:]))
	uops, deps := s.uops[int(U)*tmpl:], s.deps[s.copyEdge[tmpl]:]
	for c := 1; c < copies-tmpl; c++ {
		for _, g := range s.start[tmpl*L : (tmpl+1)*L] {
			s.start = append(s.start, g+int32(c)*U)
		}
		for _, u := range uops {
			u.inst += int32(c * L)
			s.uops = append(s.uops, u)
		}
		for _, p := range deps {
			s.deps = append(s.deps, p+int32(c)*U)
		}
	}
	s.start = append(s.start, int32(len(s.uops)))
	s.reverse()
}

// reverse builds the reverse edges of the wired arena.
func (s *simScratch) reverse() {
	// Count consumers per producer, prefix-sum, then fill in consumer id
	// order so each producer's list comes out ascending.
	n := len(s.uops)
	s.revOff = resize(s.revOff, n+1)
	clear(s.revOff)
	for _, p := range s.deps {
		s.revOff[p+1]++
	}
	for i := 1; i <= n; i++ {
		s.revOff[i] += s.revOff[i-1]
	}
	s.rev = resize(s.rev, len(s.deps))
	cursor := resize(s.pending, n)
	copy(cursor, s.revOff[:n])
	e := 0
	for id := range s.uops {
		for j := int32(0); j < s.uops[id].deps; j++ {
			p := s.deps[e]
			e++
			s.rev[cursor[p]] = int32(id)
			cursor[p]++
		}
	}
	s.pending = cursor
}

// run schedules the first copies unrolled copies of the wired block on a
// width-wide machine with nports ports, returning total cycles (and
// optionally a schedule trace). Each cycle allocates up to width fused
// µops into a simWindow-entry window, then issues ready µops oldest first,
// each to the lowest-numbered port in its set that is neither used this
// cycle nor busy with a non-pipelined op. µops learn readiness by wake-up
// rather than by a scan: an issuing producer decrements its consumers'
// pending counts, and a consumer whose last producer issued waits in a
// min-heap until its readyAt. Cycles in which nothing can happen are
// skipped. It returns an error when the block can never finish.
func (s *simScratch) run(insts []simInst, copies, width, nports int, trace *[]ScheduleEntry) (int64, error) {
	n := s.start[len(insts)*copies]
	if n == 0 {
		return idleCycles(insts, copies, width), nil
	}
	s.reset(n)
	return s.loop(insts, copies, width, nports, evState{}, 0, nil, trace)
}

// reset readies the scheduler's arrays for a run over the first n µops.
func (s *simScratch) reset(n int32) {
	s.pending = resize(s.pending, int(n))
	for id := range s.pending {
		s.pending[id] = s.uops[id].deps
	}
	s.readyAt = resize(s.readyAt, int(n))
	clear(s.readyAt)
	s.ready, s.heap = s.ready[:0], s.heap[:0]
}

// loop runs the event loop of run over copies copies from st, with the
// first nextInst unrolled instructions allocated. A resumed run
// (nextInst > 0) starts at the issue stage of st.cycle, where the saved
// run stopped allocating. With fk non-nil, it saves into fk the state of
// the run over fk.insts instructions (see fork).
func (s *simScratch) loop(insts []simInst, copies, width, nports int, st evState, nextInst int, fk *fork, trace *[]ScheduleEntry) (int64, error) {
	total := len(insts) * copies
	n := s.start[total]
	var (
		cycle, lastDone = st.cycle, st.lastDone
		inFlight        = st.inFlight
		completed       = st.completed
		portBusy        = st.portBusy
		maxBusy         = st.maxBusy
		slot            = nextInst % len(insts) // nextInst's position in the block
		resume          = nextInst > 0
		forkAt, forkN   = -1, int32(-1)
	)
	if fk != nil {
		forkAt, forkN = fk.insts, fk.uops
	}
	valid := uarch.PortSet(1)<<nports - 1
	// canAllocate reports whether the next instruction fits a fresh cycle's
	// budget and the window.
	canAllocate := func() bool {
		return nextInst < total && insts[slot].fused <= width &&
			inFlight+int(s.start[nextInst+1]-s.start[nextInst]) <= simWindow
	}

	for {
		if resume {
			resume = false
			goto issue // the saved run's wake-ups and allocation are done
		}
		if len(s.heap) > 0 && int64(s.heap[0]>>32) <= cycle {
			s.wakeDue(cycle)
		}

		// Allocate.
		for budget := width; nextInst < total && budget > 0; nextInst++ {
			f := insts[slot].fused
			lo, hi := s.start[nextInst], s.start[nextInst+1]
			if f > budget || inFlight+int(hi-lo) > simWindow {
				break
			}
			budget -= f
			// Allocation is in id order, so appending keeps ready oldest first.
			for id := lo; id < hi; id++ {
				switch {
				case s.pending[id] > 0:
				case s.readyAt[id] <= cycle:
					s.ready = append(s.ready, id)
				default:
					s.push(s.readyAt[id], id)
				}
			}
			inFlight += int(hi - lo)
			if slot++; slot == len(insts) {
				slot = 0
				if nextInst+1 == forkAt {
					// The shorter run's allocation stops here.
					s.saveFork(fk, evState{cycle, lastDone, inFlight, completed, portBusy, maxBusy})
					forkN = -1
				}
			}
		}
	issue:
		allocated := s.start[nextInst]

		// Issue, oldest first.
		var used uarch.PortSet // ports taken this cycle, or still busy
		if maxBusy > cycle {
			for p := 0; p < nports; p++ {
				if portBusy[p] > cycle {
					used |= 1 << p
				}
			}
		}
		w, i := 0, 0
		for ; i < len(s.ready) && used&valid != valid; i++ {
			id := s.ready[i]
			u := &s.uops[id]
			free := u.ports &^ used
			if free == 0 {
				s.ready[w] = id
				w++
				continue
			}
			port := bits.TrailingZeros16(uint16(free))
			used |= 1 << port
			if u.occ > 0 {
				portBusy[port] = cycle + int64(u.occ)
				maxBusy = max(maxBusy, portBusy[port])
			}
			done := cycle + int64(u.lat)
			lastDone = max(lastDone, done)
			completed++
			inFlight--
			if trace != nil {
				k := int(u.inst)
				in := &insts[k%len(insts)]
				*trace = append(*trace, ScheduleEntry{
					Iteration: k / len(insts),
					Inst:      in.text,
					Uop:       in.uops[id-s.start[k]].name(),
					Dispatch:  cycle,
					Complete:  done,
				})
			}
			for _, c := range s.rev[s.revOff[id]:s.revOff[id+1]] {
				if c >= n {
					break // beyond this run's copies
				}
				s.readyAt[c] = max(s.readyAt[c], done)
				if s.pending[c]--; s.pending[c] == 0 && c < allocated {
					if s.readyAt[c] <= cycle {
						// A zero-latency producer wakes a younger µop in
						// time for this cycle's scan.
						s.insertReady(i+1, c)
					} else {
						s.push(s.readyAt[c], c)
					}
				}
			}
		}
		if w < i {
			w += copy(s.ready[w:], s.ready[i:])
			s.ready = s.ready[:w]
		}

		if completed == n {
			cycle++
			break
		}
		if completed == forkN {
			// The shorter run issued its last µop before its allocation
			// stopped (its remaining instructions have no µops): it ends
			// here, as the check above ends this run.
			fk.done, fk.c = true, max(cycle+1, lastDone+1)
			forkAt, forkN = -1, -1
		}
		next := cycle + 1
		if !canAllocate() {
			next = s.nextEvent(cycle, &portBusy)
			if next < 0 {
				return 0, errSimStalled
			}
		}
		if next > simMaxCycles {
			return 0, errSimRunaway
		}
		cycle = next
	}

	// Drain: account for the last completions.
	if lastDone+1 > cycle {
		cycle = lastDone + 1
	}
	return cycle, nil
}

// saveFork saves the scheduler's state, at st, into f for the shorter
// run: its arrays up to its µop count, the ready list and the heap.
func (s *simScratch) saveFork(f *fork, st evState) {
	f.st = st
	f.pending = resize(f.pending, int(f.uops))
	copy(f.pending, s.pending)
	f.readyAt = resize(f.readyAt, int(f.uops))
	copy(f.readyAt, s.readyAt)
	f.ready = append(f.ready[:0], s.ready...)
	f.heap = append(f.heap[:0], s.heap...)
}

// insertReady inserts id into the ready list at its age position at or
// after from.
func (s *simScratch) insertReady(from int, id int32) {
	at := from
	for at < len(s.ready) && s.ready[at] < id {
		at++
	}
	s.ready = append(s.ready, 0)
	copy(s.ready[at+1:], s.ready[at:])
	s.ready[at] = id
}

// nextEvent returns the first cycle after cycle at which a µop can become
// ready or a ready µop can find a free port, or -1 if there is none. It is
// called only when allocation cannot proceed until something issues.
func (s *simScratch) nextEvent(cycle int64, portBusy *[16]int64) int64 {
	t := int64(-1)
	if len(s.heap) > 0 {
		t = int64(s.heap[0] >> 32)
	}
	var want uarch.PortSet
	for _, id := range s.ready {
		want |= s.uops[id].ports
	}
	for ; want != 0; want &= want - 1 {
		free := max(portBusy[bits.TrailingZeros16(uint16(want))], cycle+1)
		if t < 0 || free < t {
			t = free
		}
	}
	return t
}

// wakeDue merges the µops whose readyAt is cycle into the ready list. The
// loop never skips past the heap's top, so every due entry has readyAt ==
// cycle and the heap yields them in id order.
func (s *simScratch) wakeDue(cycle int64) {
	m := s.merge[:0]
	i := 0
	for len(s.heap) > 0 && int64(s.heap[0]>>32) <= cycle {
		id := int32(uint32(s.heap[0]))
		s.pop()
		for ; i < len(s.ready) && s.ready[i] < id; i++ {
			m = append(m, s.ready[i])
		}
		m = append(m, id)
	}
	m = append(m, s.ready[i:]...)
	s.ready, s.merge = m, s.ready
}

// push adds id to the wake-up heap at readyAt.
func (s *simScratch) push(readyAt int64, id int32) {
	h := append(s.heap, uint64(readyAt)<<32|uint64(uint32(id)))
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
	s.heap = h
}

// pop removes the heap's top.
func (s *simScratch) pop() {
	h := s.heap
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	s.heap = h
}

// idleCycles is the cycle count of copies copies of a block with no µops
// to schedule: pure zero-idiom/eliminated blocks retire at the rename width.
func idleCycles(insts []simInst, copies, width int) int64 {
	fused := 0
	for i := range insts {
		fused += insts[i].fused
	}
	return int64((fused*copies + width - 1) / width)
}

// derivedPrediction simulates k and 2k copies of the block and returns the
// marginal cost per iteration — the same steady-state definition the
// measurement framework uses. The in-order pass reads both counts off one
// schedule; blocks it cannot decide run on the event loop.
func (s *simScratch) derivedPrediction(insts []simInst, width, nports, blockLen int) (float64, error) {
	k := unrollFor(blockLen)
	c1, c2, path := s.inOrder(insts, k, width, nports)
	schedPaths[path].Add(1)
	if tmpl := len(s.copyEdge) - 2; tmpl > 1 {
		longPrologue.Add(int64(tmpl - 1))
	}
	if path != pathInOrder {
		var err error
		if c1, c2, err = s.eventPair(insts, k, width, nports); err != nil {
			return 0, err
		}
	}
	tp := float64(c2-c1) / float64(k)
	if tp < 0 {
		tp = float64(c2) / float64(2*k)
	}
	return tp, nil
}

// unrollFor is the smaller iteration count k of a derived prediction:
// enough copies of a short block to cover about 100 instructions, between
// 12 and 60.
func unrollFor(blockLen int) int {
	k := 12
	if blockLen > 0 && 100/blockLen > k {
		k = 100 / blockLen
	}
	return min(k, 60)
}

// eventPair runs the event loop at k and 2k copies, over the 2k-copy
// unrolling of the template inOrder built. The k-copy run schedules the
// id prefix of the 2k-copy run's µops, so it forks off that run where its
// allocation stops (see fork) and resumes from there. If the 2k-copy run
// fails, the k-copy run runs alone first, so the error is the one running
// k copies and then 2k reports.
func (s *simScratch) eventPair(insts []simInst, k, width, nports int) (c1, c2 int64, err error) {
	s.unroll(insts, 2*k)
	n1 := s.start[len(insts)*k]
	if n1 == 0 {
		// No µops at all (each copy has as many): both counts are idle.
		return idleCycles(insts, k, width), idleCycles(insts, 2*k, width), nil
	}
	f := &s.fork
	f.insts, f.uops, f.done = len(insts)*k, n1, false
	s.reset(s.start[len(insts)*2*k])
	c2, err = s.loop(insts, 2*k, width, nports, evState{}, 0, f, nil)
	if err != nil {
		if _, err1 := s.run(insts, k, width, nports, nil); err1 != nil {
			return 0, 0, err1
		}
		return 0, 0, err
	}
	if f.done {
		return f.c, c2, nil
	}
	// Copy the saved state back rather than swap buffers, so the fork's
	// arrays stay the size of the shorter run.
	copy(s.pending, f.pending)
	copy(s.readyAt, f.readyAt)
	s.ready = append(s.ready[:0], f.ready...)
	s.heap = append(s.heap[:0], f.heap...)
	if c1, err = s.loop(insts, k, width, nports, f.st, f.insts, nil, nil); err != nil {
		return 0, 0, err
	}
	return c1, c2, nil
}

// schedule simulates iters copies of the block and returns the trace.
func schedule(insts []simInst, width, nports, iters int) ([]ScheduleEntry, error) {
	s := new(simScratch)
	s.wire(insts, iters, nports)
	var trace []ScheduleEntry
	if _, err := s.run(insts, iters, width, nports, &trace); err != nil {
		return nil, err
	}
	return trace, nil
}
