// Package pipeline is the cycle-level out-of-order core model — the
// "silicon" of this reproduction. It models the front end (16-byte fetch
// through an L1 instruction cache), rename-time optimizations (zero-idiom
// elimination, move elimination), allocation constrained by ROB /
// reservation-station / load- and store-buffer capacity, per-port
// oldest-first issue, a non-pipelined divider, load/store execution against
// an L1 data cache with store-to-load forwarding, split-access and
// subnormal penalties, in-order retirement, and timer-interrupt context
// switches. Its performance counters are what the measurement framework
// reads.
package pipeline

import (
	"math/rand"

	"bhive/internal/exec"
	"bhive/internal/uarch"
)

// Register identifiers used for dependence tracking: 0–15 GPRs (by 64-bit
// base), 16–31 vector registers (by YMM base), 32 the status flags.
const (
	RegFlags = 32
	NumRegs  = 33
)

// Item is one dynamic instruction prepared for timing.
type Item struct {
	Desc uarch.Desc

	// AddrReads are registers consumed by address generation; DataReads by
	// the computation itself (including RMW destinations and flags).
	AddrReads []uint8
	DataReads []uint8
	Writes    []uint8

	Load  *exec.MemAccess
	Store *exec.MemAccess

	// Subnormal marks FP work that hit the gradual-underflow slow path.
	Subnormal bool

	// CodePhys/CodeLen locate the instruction bytes for I-cache modelling.
	CodePhys uint64
	CodeLen  int

	// LCP marks a length-changing-prefix encoding, which stalls the
	// modeled predecoder (ignored by the legacy front end).
	LCP bool
}

// Config carries per-run knobs beyond the CPU parameter file.
type Config struct {
	// SwitchRate is the per-cycle probability of a timer interrupt /
	// context switch (0 disables). The OS quantum is huge relative to a
	// measurement, so realistic values are tiny (~1e-7..1e-6).
	SwitchRate float64
	// SwitchCost is the cycle cost of one context switch.
	SwitchCost uint64
	// Rand drives context-switch arrival times; nil disables switches.
	Rand *rand.Rand
	// ModeledFrontEnd replaces the 16-bytes-per-cycle fetch approximation
	// with the uiCA-style decoded front end (predecode with LCP stalls,
	// MITE decode-group assignment, DSB residency and delivery, LSD
	// lock-down, and DSB↔MITE switch penalties), parameterized by the
	// CPU's FrontEnd fields. Off (the default) keeps the simulator
	// bit-identical to the legacy model.
	ModeledFrontEnd bool
	// LoopBody is the iteration length in instructions for the modeled
	// front end: the item sequence is treated as ceil(n/LoopBody)
	// iterations of the first LoopBody items (an unrolled basic block).
	// 0 means the whole sequence is one iteration (MITE-only delivery).
	LoopBody int
}

// Counters are the hardware performance counters the profiler reads.
type Counters struct {
	Cycles           uint64
	Instructions     uint64
	Uops             uint64
	L1DReadMisses    uint64
	L1DWriteMisses   uint64
	L1IMisses        uint64
	MisalignedLoads  uint64
	MisalignedStores uint64
	ContextSwitches  uint64
	// PortUops counts micro-ops issued per execution port — the per-port
	// counters Abel and Reineke's methodology relies on.
	PortUops [16]uint64
}

// maxCycles caps a run: a scheduler that has not retired every item by
// then stops there.
const maxCycles = 50_000_000

// grow returns s[:n], reallocating when the capacity is short. The
// returned slice contents are unspecified; callers fully overwrite them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

func contains(outer uint64, on int, inner uint64, in int) bool {
	return outer <= inner && inner+uint64(in) <= outer+uint64(on)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
