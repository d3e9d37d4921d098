package portmap

import "bhive/internal/uarch"

// Load is the port time bound to one allowed-port combination: the total
// port cycles of the µops that may issue only to Ports (for the reference
// simulator, one cycle per pipelined µop, the occupancy for non-pipelined
// ones).
type Load struct {
	Ports  uarch.PortSet
	Cycles float64
}

// SubsetPressure computes the pessimistic-assignment execution-port lower
// bound from a port-time profile: one Load per distinct allowed-port
// combination.
//
// For any subset S of ports, every µop whose allowed combination is
// contained in S must execute inside S, and each port serves at most one
// µop-cycle per cycle, so any schedule needs at least
//
//	cost(S) / |S|  cycles, where  cost(S) = Σ Cycles over loads with Ports ⊆ S.
//
// The returned value is the maximum of that ratio over all subsets of the
// ports that appear in loads, together with the subset attaining it. No
// LP is solved: the bound is the LP dual evaluated at the laziest feasible
// points, yet for fractional assignment it is exact (a deficiency form of
// Hall's theorem), which is what makes it usable as a *provable* bound
// rather than a heuristic. Subsets are enumerated over the union of the
// appearing combinations only, so the cost is at most 2^ports-in-use.
// Loads are summed in slice order, so the result does not depend on how
// the caller's profile was iterated.
func SubsetPressure(loads []Load) (float64, uarch.PortSet) {
	var union uarch.PortSet
	for _, l := range loads {
		if l.Cycles > 0 && l.Ports != 0 {
			union |= l.Ports
		}
	}
	if union == 0 {
		return 0, 0
	}
	best, bestSet := 0.0, uarch.PortSet(0)
	// Enumerate every non-empty subset of union (standard submask walk).
	for s := union; s != 0; s = (s - 1) & union {
		cost := 0.0
		for _, l := range loads {
			if l.Ports != 0 && l.Ports&^s == 0 {
				cost += l.Cycles
			}
		}
		if r := cost / float64(s.Count()); r > best {
			best, bestSet = r, s
		}
	}
	return best, bestSet
}
