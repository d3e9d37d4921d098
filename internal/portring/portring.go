// Package portring is the per-cycle port-reservation ring of the in-order
// scheduling passes: the machine's (internal/pipeline) and the analytical
// models' (internal/models). A pass visits µops oldest first and places
// each on the lowest port of its set that is free in the first cycle, at
// or after the µop's ready cycle, in which one is; a µop with occupancy
// above one also holds its port for the rest of its window. The ring keeps
// the cycles from the pass's allocation cycle on, row c holding cycle
// c&mask, and takes each row as the allocation cycle passes it.
package portring

import "bhive/internal/uarch"

// row is one cycle of the ring.
type row struct {
	ports  uarch.PortSet // ports taken: issue slots and occupancy windows
	issued uint16        // µops issued in the cycle
}

// fullRows records rows lo..hi−1 as full for a port set: every one of its
// ports taken. Rows only fill up until the allocation cycle passes them,
// and no µop is placed before it again, so the record stays true for the
// rest of the pass and a search for the set that reaches lo may jump to
// hi. The ring keeps 1<<fullBits records, one per port-set hash; a set
// sharing a slot with another only loses its record.
type fullRows struct {
	ports  uarch.PortSet
	lo, hi uint64
}

const fullBits = 5

// minRows is the ring's first length.
const minRows = 256

// Ring is the port-reservation ring of one pass. Its zero value is an
// empty ring at allocation cycle 0; Clear leaves it so for the next pass,
// keeping its rows.
type Ring struct {
	rows []row
	mask uint64 // len(rows)−1
	at   uint64 // the allocation cycle: no µop is placed before it
	top  uint64 // one past the latest cycle reserved
	full [1 << fullBits]fullRows
}

// TryPlace places a µop ready at cycle ready, with occupancy occ, when it
// is the common case: a port of ports free in ready's row, and occ at most
// 1. It then reserves the lowest such port and returns its bit. Otherwise
// it reserves nothing and returns ok false, and the caller calls Place.
// TryPlace is small enough to be inlined into the pass's µop loop.
func (r *Ring) TryPlace(ready uint64, ports uarch.PortSet, occ int) (bit uarch.PortSet, ok bool) {
	if occ <= 1 && ready-r.at < uint64(len(r.rows)) {
		w := &r.rows[ready&r.mask]
		if free := ports &^ w.ports; free != 0 {
			bit = free & -free
			w.ports |= bit
			w.issued++
			r.top = max(r.top, ready+1)
			return bit, true
		}
	}
	return 0, false
}

// Place issues a µop ready at cycle ready, no earlier than the allocation
// cycle, on the lowest free port of ports in the first cycle from ready
// on in which one is free, and reserves that port for occ cycles. It
// returns the cycle and the port's bit. conflict reports that an older µop
// already holds the port inside the window: the machine would have moved
// the older µop, so the pass must stop; Clear still empties the ring.
// ports must not be empty.
//
// A search past full rows starts after the rows it knows to be full for
// this port set, and records the ones it passes.
func (r *Ring) Place(ready uint64, ports uarch.PortSet, occ int) (cyc uint64, bit uarch.PortSet, conflict bool) {
	at := r.at
	cyc = ready
	if cyc-at >= uint64(len(r.rows)) {
		r.grow(cyc)
	}
	free := ports &^ r.rows[cyc&r.mask].ports
	if free == 0 {
		h := &r.full[uint32(ports)*0x9E3779B1>>(32-fullBits)]
		if h.ports == ports && h.lo <= cyc && cyc < h.hi {
			cyc = h.hi
		}
		from := cyc
		for {
			if cyc-at >= uint64(len(r.rows)) {
				r.grow(cyc)
			}
			if free = ports &^ r.rows[cyc&r.mask].ports; free != 0 {
				break
			}
			cyc++
		}
		if h.ports == ports && from == h.hi {
			h.hi = cyc
		} else {
			*h = fullRows{ports, from, cyc}
		}
	}
	bit = free & -free
	w := &r.rows[cyc&r.mask]
	w.ports |= bit
	w.issued++
	last := cyc
	if occ > 1 {
		last = cyc + uint64(occ) - 1
		if last-at >= uint64(len(r.rows)) {
			r.grow(last)
		}
	}
	r.top = max(r.top, last+1)
	for o := cyc + 1; o <= last; o++ {
		w := &r.rows[o&r.mask]
		if w.ports&bit != 0 {
			return cyc, bit, true
		}
		w.ports |= bit
	}
	return cyc, bit, false
}

// grow enlarges the ring until it covers the cycles from the allocation
// cycle to c, keeping their rows.
func (r *Ring) grow(c uint64) {
	at := r.at
	n := max(uint64(len(r.rows)), minRows)
	for c-at >= n {
		n *= 2
	}
	old, om := r.rows, r.mask
	r.rows, r.mask = make([]row, n), n-1
	for x := at; x < at+uint64(len(old)); x++ {
		r.rows[x&r.mask] = old[x&om]
	}
}

// Advance moves the allocation cycle on to c, no earlier than the last,
// and returns the µops issued in the rows it passes, which it clears: no
// µop is placed before c again.
func (r *Ring) Advance(c uint64) int {
	n := 0
	for at := r.at; at < c && at < r.top; at++ {
		w := &r.rows[at&r.mask]
		n += int(w.issued)
		*w = row{}
	}
	r.at = c
	return n
}

// Clear leaves the ring empty and at allocation cycle 0 for the next
// pass. Only rows from the allocation cycle up to top may hold
// reservations, and the ring covers them all.
func (r *Ring) Clear() {
	for c := r.at; c < r.top; c++ {
		r.rows[c&r.mask] = row{}
	}
	r.at, r.top = 0, 0
	r.full = [1 << fullBits]fullRows{}
}
