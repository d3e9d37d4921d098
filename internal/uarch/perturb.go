package uarch

// Perturbed returns a second parameterization of this microarchitecture:
// the same core structure with deterministically scaled latencies and a
// thinned port map, standing in for a differently-calibrated machine (a
// sibling stepping, or the same silicon measured by a harness with
// different counter calibration). Cross-validating measurements between a
// CPU and its perturbation bounds how sensitive a ground truth is to the
// parameter file, the way the paper cross-validates models against one
// hardware truth per microarchitecture.
//
// The perturbed CPU carries a distinct Name. That is load-bearing, not
// cosmetic: µop descriptions (internal/memo) are keyed by CPU name, so a
// shared name would let one parameterization's descriptions leak into the
// other's, and the perturbed backend's part of the checkpoint fingerprint
// (backend.Fingerprint) names the backend, not these parameters.
func (c *CPU) Perturbed() *CPU {
	p := *c
	p.Name = c.Name + "-perturbed"

	// Memory system: one extra load-to-use cycle and a deeper miss path.
	p.L1DLatency++
	p.MissPenalty += 4
	p.FwdLatency++

	// Scalar and FP latencies: one cycle slower across the board, with the
	// dividers scaled by 5/4 (their latencies dominate the div case study,
	// so a multiplicative bump keeps the perturbation proportionate).
	p.fpAddLat++
	p.fpMulLat++
	if p.fmaLat > 0 {
		p.fmaLat++
	}
	p.mulLat++
	p.pmulldLat++
	p.div32Lat += p.div32Lat / 4
	p.div64Lat += p.div64Lat / 4
	p.divSSLat += p.divSSLat / 4
	p.divPSLat += p.divPSLat / 4
	p.sqrtLat += p.sqrtLat / 4

	// Port map: thin the integer-ALU and vector-logic sets by their highest
	// port, so port-bound blocks schedule differently. Load/store ports and
	// the issue width are untouched — the perturbation is a recalibration,
	// not a different machine class.
	p.intALUPorts = dropHighestPort(p.intALUPorts)
	p.vecLogPorts = dropHighestPort(p.vecLogPorts)

	return &p
}

// dropHighestPort removes the highest-numbered port from a set, never
// emptying it (a one-port set is returned unchanged: every µop class must
// stay executable).
func dropHighestPort(s PortSet) PortSet {
	if s.Count() <= 1 {
		return s
	}
	for i := 15; i >= 0; i-- {
		if s.Has(i) {
			return s &^ (1 << i)
		}
	}
	return s
}
