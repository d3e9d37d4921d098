package models

import "bhive/internal/uarch"

// LLVMMCA models llvm-mca: an out-of-order simulator whose parameters come
// from the compiler's backend scheduling model rather than from silicon.
// Three deliberate differences from the hardware reproduce its error
// profile in the paper:
//
//   - A load micro-fuses with its consumer into one *scheduling* unit, so
//     an independent load cannot be hoisted ahead of the dependent ALU op
//     (the mis-scheduling case study: 13.04 predicted vs 8.25 measured on
//     the Gzip CRC block).
//   - The scheduling model knows nothing about zero idioms or move
//     elimination (vxorps xmm2,xmm2,xmm2 costed as a real 1.00-throughput
//     XOR against a measured 0.25).
//   - The divider entry only covers the 64-bit form, like IACA's.
//
// The Skylake scheduling model is younger and noisier than the Haswell and
// Ivy Bridge ones — "a result of LLVM developers having less time updating
// the cost models for the relatively new microarchitecture".
type LLVMMCA struct{ simModel }

// NewLLVMMCA builds the llvm-mca-like model for a CPU.
func NewLLVMMCA(cpu *uarch.CPU) *LLVMMCA {
	o := tableOpts{
		salt:            "llvm-mca/" + cpu.Name,
		perturbProb:     0.10,
		perturbStrength: 0.22,
		vecProb:         0.85,
		vecStrength:     0.60,
		divBug:          true,
		div64:           divReference(cpu),
		zeroIdioms:      false,
		moveElim:        false,
		fuseLoads:       true,
		vecPortDrop:     0.35,
		vecSlowProb:     0.40,
	}
	if cpu.Name == "skylake" {
		// The stale SKL scheduling model drifted further from silicon.
		o.perturbProb = 0.62
		o.perturbStrength = 0.60
		o.vecProb = 0.95
		o.vecStrength = 0.70
		o.vecPortDrop = 0.50
		o.vecSlowProb = 0.55
	}
	return &LLVMMCA{simModel{cpu: cpu, opts: o}}
}

// Name implements Predictor.
func (m *LLVMMCA) Name() string { return "llvm-mca" }
