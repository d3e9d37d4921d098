package models

import (
	"sync/atomic"

	"bhive/internal/uarch"
)

// The in-order pass computes a derived prediction without the event loop.
// The model's scheduler issues oldest first, allocates in order and frees
// window slots only at issue, so the cycle at which a µop issues is fixed
// by the µops older than it. The one exception is a younger µop whose
// non-pipelined occupancy blocks a port an older µop would take; the pass
// detects that case and leaves the block to the event loop.
//
// The pass visits µops in id order and places each in a per-cycle
// port-reservation ring (internal/portring, shared with the machine's
// pass):
//
//   - Instruction i allocates in the first cycle, at or after the cycle
//     of instruction i−1, whose remaining width budget is positive and
//     covers i's fused count, and in which the window holds i's µops.
//     µops issued in earlier cycles have left the window; issue follows
//     allocation within a cycle.
//   - A µop issues in the first cycle at or after its allocation and its
//     producers' completions in which one of its ports is neither taken
//     by an older µop nor inside an older µop's occupancy window, on the
//     lowest such port.
//   - A µop with occupancy above one reserves its port for its whole
//     window. An older µop already holding that port inside the window is
//     an occupancy conflict: the machine would have moved the older µop.
//
// Producer edges come from a one-iteration template (template), so only
// the first copies are wired. c(n) is one past the latest completion over
// the first n copies.

// schedPath is how one derived prediction was scheduled.
type schedPath int

const (
	pathInOrder  schedPath = iota // the in-order pass decided it
	pathConflict                  // occupancy conflict: the event loop ran
	pathOther                     // over-wide, portless or runaway: the event loop ran
)

var (
	schedPaths   [3]atomic.Int64 // predictions by schedPath
	longPrologue atomic.Int64    // template prologue copies beyond the first
)

// SchedCounters is a snapshot of the model scheduler's counters.
type SchedCounters struct {
	// InOrder counts derived predictions the in-order pass computed.
	InOrder int64
	// OccupancyFallbacks counts predictions run on the event loop because
	// a non-pipelined µop would have moved an older one.
	OccupancyFallbacks int64
	// OtherFallbacks counts predictions run on the event loop because an
	// instruction is wider than the machine or its window, a µop has no
	// port, or the schedule passes simMaxCycles. The event loop reports
	// the exact error.
	OtherFallbacks int64
	// LongPrologue sums, over predictions, the template prologue copies
	// beyond the first (elimination chains that alias across copies).
	LongPrologue int64
}

// SchedStats returns the current counters.
func SchedStats() SchedCounters {
	return SchedCounters{
		InOrder:            schedPaths[pathInOrder].Load(),
		OccupancyFallbacks: schedPaths[pathConflict].Load(),
		OtherFallbacks:     schedPaths[pathOther].Load(),
		LongPrologue:       longPrologue.Load(),
	}
}

// inOrder schedules 2k copies of the block in one pass and returns c(k)
// and c(2k), or the reason the event loop must decide the block instead.
func (s *simScratch) inOrder(insts []simInst, k, width, nports int) (c1, c2 int64, path schedPath) {
	valid := uarch.PortSet(1)<<nports - 1
	copies := 2 * k
	tmpl := s.template(insts, copies, valid)
	nInsts := len(insts)
	U := int(s.start[nInsts]) // µops per copy
	if U == 0 {
		return idleCycles(insts, k, width), idleCycles(insts, copies, width), pathInOrder
	}
	for i := range insts {
		if insts[i].fused > width || s.start[i+1]-s.start[i] > simWindow {
			return 0, 0, pathOther
		}
	}
	for j := 0; j < U; j++ {
		if s.uops[j].ports == 0 {
			return 0, 0, pathOther
		}
	}

	s.done = resize(s.done, copies*U)
	var (
		at      int64 // allocation cycle: the ring holds cycles from at on
		gone    int   // µops issued before at
		budget  = width
		maxDone = int64(-1)
		id      int32
	)
	// nextCycle moves allocation to the next cycle, taking at's row.
	nextCycle := func() {
		at++
		gone += s.ring.Advance(uint64(at))
		budget = width
	}
	defer s.ring.Clear() // empty for the next block

	for c := 0; c < copies; c++ {
		tc := min(c, tmpl)
		shift := int32((c - tc) * U)
		base := tc * U // copy tc's µops carry copy c's parameters and edges
		e := s.copyEdge[tc]
		for i := range insts {
			lo, end := s.start[i], s.start[i+1]
			if f := insts[i].fused; budget <= 0 || f > budget {
				nextCycle()
			}
			for need := int(id+end-lo) - simWindow; gone < need; {
				nextCycle()
			}
			budget -= insts[i].fused
			for j := lo; j < end; j++ {
				u := &s.uops[base+int(j)]
				ready := at
				for _, p := range s.deps[e : e+u.deps] {
					ready = max(ready, int64(s.done[p+shift]))
				}
				e += u.deps

				cyc, conflict := uint64(ready), false
				if _, ok := s.ring.TryPlace(cyc, u.ports, int(u.occ)); !ok {
					cyc, _, conflict = s.ring.Place(cyc, u.ports, int(u.occ))
				}
				if cyc > simMaxCycles {
					return 0, 0, pathOther
				}
				if conflict {
					return 0, 0, pathConflict
				}
				done := int64(cyc) + int64(u.lat)
				s.done[id] = int32(done)
				maxDone = max(maxDone, done)
				id++
			}
		}
		if c == k-1 {
			c1 = maxDone + 1
		}
	}
	return c1, maxDone + 1, pathInOrder
}
