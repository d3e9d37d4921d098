// Package uarch defines the microarchitectural parameter files for the
// three Intel cores the BHive paper validates against — Ivy Bridge, Haswell
// and Skylake — and the mapping from instructions to micro-ops with their
// execution-port combinations and latencies (in the style of Abel and
// Reineke's reverse-engineered tables that the paper uses for basic-block
// classification).
package uarch

import (
	"fmt"
	"strings"

	"bhive/internal/x86"
)

// PortSet is a bitmask of execution ports (bit i = port i).
type PortSet uint16

// Ports builds a PortSet from port numbers.
func Ports(ns ...int) PortSet {
	var p PortSet
	for _, n := range ns {
		p |= 1 << n
	}
	return p
}

// Has reports whether port n is in the set.
func (p PortSet) Has(n int) bool { return p&(1<<n) != 0 }

// Count returns the number of ports in the set.
func (p PortSet) Count() int {
	n := 0
	for q := p; q != 0; q &= q - 1 {
		n++
	}
	return n
}

// String renders the set in Abel-and-Reineke notation, e.g. "p0156".
func (p PortSet) String() string {
	if p == 0 {
		return "none"
	}
	var b strings.Builder
	b.WriteByte('p')
	for i := 0; i < 16; i++ {
		if p.Has(i) {
			fmt.Fprintf(&b, "%d", i)
		}
	}
	return b.String()
}

// UopClass is the functional class of a micro-op.
type UopClass uint8

const (
	ClassNop UopClass = iota
	ClassLoad
	ClassStoreAddr
	ClassStoreData
	ClassIntALU
	ClassIntShift
	ClassIntMul
	ClassIntDiv
	ClassLEA
	ClassVecALU   // packed integer arithmetic
	ClassVecLogic // bitwise vector ops and register moves
	ClassVecMul
	ClassVecShift
	ClassFPAdd
	ClassFPMul
	ClassFMA
	ClassFPDiv
	ClassShuffle
	ClassTransfer // GPR <-> XMM moves
	ClassBranch
)

var uopClassNames = [...]string{
	"nop", "load", "store-addr", "store-data", "int-alu", "int-shift",
	"int-mul", "int-div", "lea", "vec-alu", "vec-logic", "vec-mul",
	"vec-shift", "fp-add", "fp-mul", "fma", "fp-div", "shuffle",
	"transfer", "branch",
}

func (c UopClass) String() string {
	if int(c) < len(uopClassNames) {
		return uopClassNames[c]
	}
	return "uop?"
}

// Uop is one micro-op of a decoded instruction.
type Uop struct {
	Class UopClass
	Ports PortSet
	// Lat is the latency in cycles from issue to when dependents may issue.
	Lat uint8
	// Occupancy is the number of cycles the (non-pipelined) functional unit
	// stays busy; 0 means fully pipelined.
	Occupancy uint8
}

// Desc is the microarchitectural description of one instruction.
type Desc struct {
	// Uops in program order: loads first, then computation, then
	// store-address and store-data.
	Uops []Uop
	// FusedUops is the micro-op count in the fused domain (what the
	// front-end and renamer see; micro-fusion combines a load with its
	// consuming ALU op, and a store's address and data µops).
	FusedUops int
	// ZeroIdiom marks dependency-breaking idioms (xor reg,reg and friends)
	// that the renamer eliminates: no execution µop, zero latency.
	ZeroIdiom bool
	// EliminatedMove marks register-register moves removed at rename.
	EliminatedMove bool
	// FP marks floating-point data ops, which are subject to the
	// subnormal-operand penalty when MXCSR FTZ/DAZ is off.
	FP bool
	// Generic marks descriptors whose opcode is missing from the µop
	// table and fell back to the conservative single-cycle ALU default.
	// The simulator still runs them, but any static cycle bound derived
	// from this descriptor is vacuous (the real latency/ports are
	// unknown); bhive-lint surfaces these as BL015.
	Generic bool
}

// CPU is a microarchitecture parameter file. It is both the configuration
// of the ground-truth pipeline simulator and the source of the
// port-mapping tables used for classification.
type CPU struct {
	Name string

	// Core structure.
	IssueWidth  int // fused-domain µops renamed/allocated per cycle
	RetireWidth int
	ROBSize     int
	RSSize      int
	LoadBufs    int
	StoreBufs   int
	NumPorts    int

	// Memory system.
	L1DLatency  int // load-to-use latency, cycles
	L1DSize     int
	L1ISize     int
	LineSize    int
	L1Assoc     int
	MissPenalty int // additional cycles on an L1 miss
	FwdLatency  int // store-to-load forwarding latency

	// Penalties.
	SubnormalPenalty int // extra cycles for an FP op touching subnormals
	SplitPenalty     int // extra cycles for a cache-line-crossing access

	// Port roles.
	LoadPorts      PortSet
	StoreAddrPorts PortSet
	StoreDataPorts PortSet

	// Capabilities. Features is the set of ISA extensions the core
	// implements; an instruction needing any other is unsupported.
	Features        x86.Feature
	MoveElimination bool

	// FPAddLat/FPMulLat etc. select per-µarch latencies inside the shared
	// describe table.
	intALUPorts  PortSet
	shiftPorts   PortSet
	shiftCLPorts PortSet
	leaPorts     PortSet
	mulPorts     PortSet
	divPorts     PortSet
	vecALUPorts  PortSet
	vecLogPorts  PortSet
	vecMulPorts  PortSet
	vecShiftPort PortSet
	vecCmpPorts  PortSet
	fpAddPorts   PortSet
	fpMulPorts   PortSet
	shufflePorts PortSet
	transferPort PortSet
	branchPorts  PortSet

	fpAddLat  uint8
	fpMulLat  uint8
	fmaLat    uint8
	mulLat    uint8
	div32Lat  uint8 // 32-bit divide latency ≈ occupancy
	div64Lat  uint8
	divSSLat  uint8
	divSSOcc  uint8
	divPSLat  uint8
	sqrtLat   uint8
	sqrtOcc   uint8
	pmulldLat uint8
}

// IvyBridge returns the Ivy Bridge parameter file (6 execution ports,
// AVX but no AVX2/FMA).
func IvyBridge() *CPU {
	return &CPU{
		Name:        "ivybridge",
		IssueWidth:  4,
		RetireWidth: 4,
		ROBSize:     168,
		RSSize:      54,
		LoadBufs:    64,
		StoreBufs:   36,
		NumPorts:    6,

		L1DLatency:  4,
		L1DSize:     32 << 10,
		L1ISize:     32 << 10,
		LineSize:    64,
		L1Assoc:     8,
		MissPenalty: 12,
		FwdLatency:  5,

		SubnormalPenalty: 124,
		SplitPenalty:     10,

		LoadPorts:      Ports(2, 3),
		StoreAddrPorts: Ports(2, 3),
		StoreDataPorts: Ports(4),

		Features:        x86.FeatSSE | x86.FeatAVX,
		MoveElimination: true,

		intALUPorts:  Ports(0, 1, 5),
		shiftPorts:   Ports(0, 5),
		shiftCLPorts: Ports(0, 5),
		leaPorts:     Ports(0, 1),
		mulPorts:     Ports(1),
		divPorts:     Ports(0),
		vecALUPorts:  Ports(1, 5),
		vecLogPorts:  Ports(0, 1, 5),
		vecMulPorts:  Ports(0),
		vecShiftPort: Ports(0),
		vecCmpPorts:  Ports(1, 5),
		fpAddPorts:   Ports(1),
		fpMulPorts:   Ports(0),
		shufflePorts: Ports(5),
		transferPort: Ports(0),
		branchPorts:  Ports(5),

		fpAddLat:  3,
		fpMulLat:  5,
		fmaLat:    0,
		mulLat:    3,
		div32Lat:  22,
		div64Lat:  92,
		divSSLat:  13,
		divSSOcc:  7,
		divPSLat:  13,
		sqrtLat:   14,
		sqrtOcc:   7,
		pmulldLat: 5,
	}
}

// Haswell returns the Haswell parameter file (8 execution ports, AVX2+FMA).
func Haswell() *CPU {
	return &CPU{
		Name:        "haswell",
		IssueWidth:  4,
		RetireWidth: 4,
		ROBSize:     192,
		RSSize:      60,
		LoadBufs:    72,
		StoreBufs:   42,
		NumPorts:    8,

		L1DLatency:  4,
		L1DSize:     32 << 10,
		L1ISize:     32 << 10,
		LineSize:    64,
		L1Assoc:     8,
		MissPenalty: 12,
		FwdLatency:  5,

		SubnormalPenalty: 124,
		SplitPenalty:     10,

		LoadPorts:      Ports(2, 3),
		StoreAddrPorts: Ports(2, 3, 7),
		StoreDataPorts: Ports(4),

		Features:        x86.FeatSSE | x86.FeatAVX | x86.FeatAVX2 | x86.FeatFMA,
		MoveElimination: true,

		intALUPorts:  Ports(0, 1, 5, 6),
		shiftPorts:   Ports(0, 6),
		shiftCLPorts: Ports(6),
		leaPorts:     Ports(1, 5),
		mulPorts:     Ports(1),
		divPorts:     Ports(0),
		vecALUPorts:  Ports(1, 5),
		vecLogPorts:  Ports(0, 1, 5),
		vecMulPorts:  Ports(0, 1),
		vecShiftPort: Ports(0),
		vecCmpPorts:  Ports(0, 5),
		fpAddPorts:   Ports(1),
		fpMulPorts:   Ports(0, 1),
		shufflePorts: Ports(5),
		transferPort: Ports(0),
		branchPorts:  Ports(6),

		fpAddLat:  3,
		fpMulLat:  5,
		fmaLat:    5,
		mulLat:    3,
		div32Lat:  21,
		div64Lat:  95,
		divSSLat:  13,
		divSSOcc:  7,
		divPSLat:  13,
		sqrtLat:   15,
		sqrtOcc:   8,
		pmulldLat: 10,
	}
}

// Skylake returns the Skylake parameter file: Haswell-like port layout
// with symmetric 4-cycle FP add/mul on ports 0 and 1, a faster radix-1024
// divider, and larger out-of-order windows.
func Skylake() *CPU {
	c := Haswell()
	c.Name = "skylake"
	c.ROBSize = 224
	c.RSSize = 97
	c.LoadBufs = 72
	c.StoreBufs = 56
	c.vecALUPorts = Ports(0, 1, 5)
	c.fpAddPorts = Ports(0, 1)
	c.fpMulPorts = Ports(0, 1)
	c.fpAddLat = 4
	c.fpMulLat = 4
	c.fmaLat = 4
	c.div32Lat = 23
	c.div64Lat = 42
	c.divSSLat = 11
	c.divSSOcc = 3
	c.divPSLat = 11
	c.sqrtLat = 12
	c.sqrtOcc = 4
	c.pmulldLat = 10
	return c
}

// IceLake returns the Ice Lake (Sunny Cove) parameter file: the
// post-Skylake core with 5-wide allocation and retirement, deeper
// out-of-order windows, a 48 KB 5-cycle L1D, and a fast radix-64
// divider. The execution-port layout is carried over from Skylake — the
// extra store-data and AGU ports of the real core are not modeled — so
// Ice Lake numbers exercise the width and window parameters, not a
// re-derived port table.
func IceLake() *CPU {
	c := Skylake()
	c.Name = "icelake"
	c.IssueWidth = 5
	c.RetireWidth = 5
	c.ROBSize = 352
	c.RSSize = 160
	c.LoadBufs = 128
	c.StoreBufs = 72
	c.L1DLatency = 5
	c.L1DSize = 48 << 10
	c.L1Assoc = 12
	c.div32Lat = 12
	c.div64Lat = 18
	return c
}

// ByName returns the CPU model with the given name.
func ByName(name string) (*CPU, error) {
	switch strings.ToLower(name) {
	case "ivybridge", "ivb":
		return IvyBridge(), nil
	case "haswell", "hsw":
		return Haswell(), nil
	case "skylake", "skl":
		return Skylake(), nil
	case "icelake", "icl":
		return IceLake(), nil
	}
	return nil, fmt.Errorf("uarch: unknown microarchitecture %q", name)
}

// All returns the three validated microarchitectures in paper order.
// Ice Lake is deliberately excluded: the paper's tables cover exactly
// these three, and every golden-pinned experiment iterates All.
func All() []*CPU {
	return []*CPU{IvyBridge(), Haswell(), Skylake()}
}

// Extended returns every parameterized microarchitecture: the paper's
// three plus Ice Lake. Crosschecks that are proofs rather than paper
// reproductions (boundcheck) run over this list.
func Extended() []*CPU {
	return append(All(), IceLake())
}
