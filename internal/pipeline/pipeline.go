// Package pipeline is the cycle-level out-of-order core model — the
// "silicon" of this reproduction. It models the front end (16-byte fetch
// through an L1 instruction cache), rename-time optimizations (zero-idiom
// elimination, move elimination), allocation constrained by ROB /
// reservation-station / load- and store-buffer capacity, per-port
// oldest-first issue, a non-pipelined divider, load/store execution against
// an L1 data cache with store-to-load forwarding, split-access and
// subnormal penalties and in-order retirement. Its performance counters
// are what the measurement framework reads.
package pipeline

import (
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
}

// Config carries per-run knobs beyond the CPU parameter file.
type Config struct {
	// Sched, when set, counts the run by the Path that scheduled it. It
	// only observes: the run's properties alone choose the path.
	Sched *SchedCounters
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
	// ContextSwitches is always 0 from the simulator, which models no
	// interrupts (the profiler draws them per sample instead); a hardware
	// counter source (internal/counter) fills it.
	ContextSwitches uint64
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
