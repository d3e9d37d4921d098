package portring

import (
	"math/rand"
	"testing"

	"bhive/internal/uarch"
)

// linear is the reference ring: one row per cycle from 0, a port search
// that tries every row from ready on, and no full-row records.
type linear struct {
	rows []row
}

func (l *linear) row(c uint64) *row {
	for uint64(len(l.rows)) <= c {
		l.rows = append(l.rows, row{})
	}
	return &l.rows[c]
}

func (l *linear) place(ready uint64, ports uarch.PortSet, occ int) (uint64, uarch.PortSet, bool) {
	cyc := ready
	for ports&^l.row(cyc).ports == 0 {
		cyc++
	}
	free := ports &^ l.row(cyc).ports
	bit := free & -free
	l.row(cyc).ports |= bit
	l.row(cyc).issued++
	for o := cyc + 1; o < cyc+uint64(max(occ, 1)); o++ {
		if l.row(o).ports&bit != 0 {
			return cyc, bit, true
		}
		l.row(o).ports |= bit
	}
	return cyc, bit, false
}

func (l *linear) take(at, c uint64) int {
	n := 0
	for ; at < c; at++ {
		n += int(l.row(at).issued)
	}
	return n
}

// TestRingMatchesLinear feeds random passes to the ring and to the linear
// reference: allocation advances, and µops with a ready offset, a port
// set over four ports and an occupancy of 1 to 4. Every placement's cycle,
// port and conflict verdict and every taken row's µop count must agree,
// and Clear must leave every row empty. Some passes start on a fresh ring,
// so the ring grows while its live rows straddle the wrap point.
func TestRingMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	passes := 3000
	if testing.Short() {
		passes = 300
	}
	var r Ring
	wrapGrowths, skips, totalSteps := 0, 0, 0
	for pass := 0; pass < passes; pass++ {
		if pass%8 == 0 {
			r = Ring{}
		}
		var ref linear
		at := uint64(0)
		conflict := false
		step := 0
		for ; step < 400 && !conflict; step++ {
			switch k := rng.Intn(16); {
			case k == 0:
				// A long stall: allocation jumps past the reservations.
				c := at + uint64(rng.Intn(600))
				if got, want := r.Advance(c), ref.take(at, c); got != want {
					t.Fatalf("pass %d step %d: Advance from %d to %d = %d µops, linear %d", pass, step, at, c, got, want)
				}
				at = c
			case k < 4:
				c := at + uint64(rng.Intn(3))
				if got, want := r.Advance(c), ref.take(at, c); got != want {
					t.Fatalf("pass %d step %d: Advance from %d to %d = %d µops, linear %d", pass, step, at, c, got, want)
				}
				at = c
			default:
				ready := at + uint64(rng.Intn(8))
				if rng.Intn(32) == 0 {
					ready = at + uint64(rng.Intn(1200)) // forces growth
				}
				ports := uarch.PortSet(1 + rng.Intn(15))
				occ := 1
				if rng.Intn(12) == 0 {
					occ = 1 + rng.Intn(4)
				}
				n, mask := uint64(len(r.rows)), r.mask
				var cyc uint64
				var bit uarch.PortSet
				var ok bool
				if rng.Intn(2) == 0 {
					bit, ok = r.TryPlace(ready, ports, occ)
					cyc = ready
				}
				if !ok {
					cyc, bit, conflict = r.Place(ready, ports, occ)
				}
				wc, wb, wconf := ref.place(ready, ports, occ)
				if cyc != wc || bit != wb || conflict != wconf {
					t.Fatalf("pass %d step %d: place(at %d, ready %d, ports %v, occ %d) = cycle %d port %v conflict %v; linear %d %v %v",
						pass, step, at, ready, ports, occ, cyc, bit, conflict, wc, wb, wconf)
				}
				if n > 0 && uint64(len(r.rows)) > n && at&mask+(r.top-at) > n {
					wrapGrowths++
				}
				if cyc > ready {
					skips++ // ready's row was full for ports
				}
			}
		}
		totalSteps += step
		r.Clear()
		for c, w := range r.rows {
			if w != (row{}) {
				t.Fatalf("pass %d: row %d holds %+v after Clear", pass, c, w)
			}
		}
	}
	t.Logf("%d steps: %d growths across the wrap point, %d placements past a full row", totalSteps, wrapGrowths, skips)
	if wrapGrowths == 0 || skips == 0 {
		t.Fatalf("growths across the wrap point %d, placements past a full row %d: want both", wrapGrowths, skips)
	}
}

// TestRingAllocs pins that a warm ring places, advances and clears
// without allocating.
func TestRingAllocs(t *testing.T) {
	var r Ring
	pass := func() {
		at := uint64(0)
		for i := 0; i < 200; i++ {
			ports := uarch.PortSet(1 + i%3)
			if _, ok := r.TryPlace(at+uint64(i%5), ports, 1); !ok {
				r.Place(at+uint64(i%5), ports, 1+i%3)
			}
			if i%4 == 3 {
				at++
				r.Advance(at)
			}
		}
		r.Clear()
	}
	pass()
	if n := testing.AllocsPerRun(100, pass); n != 0 {
		t.Fatalf("a warm pass allocates %.1f times, want 0", n)
	}
}
