package portmap

import (
	"math"
	"testing"

	"bhive/internal/uarch"
)

func TestSubsetPressure(t *testing.T) {
	p := uarch.Ports
	cases := []struct {
		name string
		load []Load
		want float64
		set  uarch.PortSet
	}{
		{"empty", nil, 0, 0},
		{"single port", []Load{{p(0), 3}}, 3, p(0)},
		{"two spreadable", []Load{{p(0, 1), 4}}, 2, p(0, 1)},
		// Restricted µops force the shared subset even though the wide
		// combination alone would spread: {0,1} holds 1+1+2 = 4 over 2.
		{"hall deficiency", []Load{{p(0), 1}, {p(1), 1}, {p(0, 1), 2}}, 2, p(0, 1)},
		// The narrow subset binds when the restricted load dominates.
		{"narrow binds", []Load{{p(0), 5}, {p(0, 1, 2), 3}}, 5, p(0)},
		// Zero and unconstrained (PortSet 0) entries are ignored.
		{"ignores zero", []Load{{p(0), 0}, {0, 7}}, 0, 0},
	}
	for _, c := range cases {
		got, set := SubsetPressure(c.load)
		if math.Abs(got-c.want) > 1e-9 || set != c.set {
			t.Errorf("%s: got %.4f on %s, want %.4f on %s", c.name, got, set, c.want, c.set)
		}
	}
}

// TestSubsetPressureLowerBoundsSchedule checks the defining property on a
// brute-forced instance: no integral assignment of µops to allowed ports
// can finish in fewer cycles than the subset bound.
func TestSubsetPressureLowerBoundsSchedule(t *testing.T) {
	p := uarch.Ports
	load := []Load{
		{p(0), 2},
		{p(0, 1), 3},
		{p(1, 5), 1},
		{p(5), 2},
	}
	bound, _ := SubsetPressure(load)

	// Enumerate every assignment of the 8 unit µops to a port in their
	// combination and take the best makespan.
	type uop struct{ ports []int }
	var uops []uop
	for _, l := range load {
		var ps []int
		for i := 0; i < 16; i++ {
			if l.Ports.Has(i) {
				ps = append(ps, i)
			}
		}
		for k := 0; k < int(l.Cycles); k++ {
			uops = append(uops, uop{ports: ps})
		}
	}
	best := math.Inf(1)
	var rec func(i int, used map[int]int)
	rec = func(i int, used map[int]int) {
		if i == len(uops) {
			worst := 0
			for _, n := range used {
				if n > worst {
					worst = n
				}
			}
			best = math.Min(best, float64(worst))
			return
		}
		for _, pt := range uops[i].ports {
			used[pt]++
			rec(i+1, used)
			used[pt]--
		}
	}
	rec(0, map[int]int{})

	if bound > best+1e-9 {
		t.Fatalf("subset bound %.4f exceeds the best schedule %.4f", bound, best)
	}
	// The bound is exact for fractional assignment; integral schedules can
	// only round up. For this instance (8 unit µops over {0,1,5}) the gap
	// is exactly the ceiling.
	if math.Ceil(bound-1e-9) != best {
		t.Fatalf("ceil of subset bound %.4f should meet the best schedule %.4f", bound, best)
	}
}
