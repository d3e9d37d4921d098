// Package bound computes provable static cycle bounds for basic blocks
// against the reference pipeline simulator: for each (block, µarch) pair a
// sound lower bound on steady-state cycles-per-iteration, a latency-sum
// upper bound, and a bottleneck verdict naming the dominating term. The
// lower bound is the maximum of three independently sound terms — the
// loop-carried dependence height (exact maximum cycle ratio over the
// simulator-congruent dependence graph), execution-port pressure (subset
// bound over the port tables), and front-end width (fused-µop allocation
// and fetch bandwidth). A simulated throughput below the lower bound or
// above the upper bound is a simulator bug, not a modeling error; the
// `-exp boundcheck` harness experiment enforces exactly that.
package bound

import (
	"fmt"

	"bhive/internal/memo"
	"bhive/internal/portmap"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Verdict names the lower-bound term that dominates a block.
type Verdict uint8

const (
	// VerdictDepChain: the loop-carried dependence height is the binding
	// constraint (a latency-bound block).
	VerdictDepChain Verdict = iota
	// VerdictPort: pressure on some execution-port subset binds (a
	// throughput-bound block).
	VerdictPort
	// VerdictFrontEnd: fused-µop allocation width or fetch bandwidth binds.
	VerdictFrontEnd
)

func (v Verdict) String() string {
	switch v {
	case VerdictDepChain:
		return "DepChain"
	case VerdictPort:
		return "Port"
	case VerdictFrontEnd:
		return "FrontEnd"
	}
	return "Verdict?"
}

// Bounds is the static cycle-bound analysis of one block on one µarch.
// All cycle quantities are per iteration of the block in steady state.
type Bounds struct {
	// Lower is the sound lower bound: max(DepChain, PortPressure, FrontEnd).
	Lower float64 `json:"lower"`
	// Upper is the serial-execution upper bound (every µop in sequence,
	// plus issue, fetch and store-forwarding slack).
	Upper float64 `json:"upper"`

	// The individual lower-bound terms.
	DepChain     float64 `json:"dep_chain"`
	PortPressure float64 `json:"port_pressure"`
	FrontEnd     float64 `json:"front_end"`

	// Ports is the execution-port subset attaining PortPressure.
	Ports uarch.PortSet `json:"-"`

	// CritPath is the latency-weighted critical path of a single iteration
	// from clean state (cycles, not per-iteration).
	CritPath int `json:"crit_path"`

	// Verdict names the dominating lower-bound term.
	Verdict Verdict `json:"-"`

	// Vacuous is set when any instruction fell back to the generic µop
	// descriptor (opcode missing from the table): the bounds still hold
	// against the simulator, which uses the same fallback, but they say
	// nothing about real hardware. bhive-lint reports these as BL015.
	Vacuous bool `json:"vacuous,omitempty"`
}

// VerdictString renders the verdict with the binding port subset, e.g.
// "Port(p01)".
func (b *Bounds) VerdictString() string {
	if b.Verdict == VerdictPort {
		return fmt.Sprintf("Port(%s)", b.Ports)
	}
	return b.Verdict.String()
}

// MarshalText lets Bounds verdicts print naturally in JSON reports.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// fetchBytesPerCycle matches the simulator's front-end fetch bandwidth
// (16 code bytes per cycle).
const fetchBytesPerCycle = 16.0

// Analyze computes the static bounds for a block on one µarch, against
// the simulator's 16-bytes-per-cycle fetch front end. It fails only when
// an instruction cannot be described at all (undecodable for this
// subset); unknown-but-describable opcodes instead yield vacuous bounds.
func Analyze(cpu *uarch.CPU, b *x86.Block) (*Bounds, error) {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	s.entries = memo.For(cpu).Resolve(s.entries[:0], b)
	return s.Analyze(cpu, s.entries)
}

// Analyze computes Analyze's bounds for a block already resolved into its
// memo entries on cpu (memo.Arch.Resolve), in s. It applies Analyze's
// error rule to the entries: an empty block fails, then the first entry,
// in block order, whose description failed.
func (s *Scratch) Analyze(cpu *uarch.CPU, entries []*memo.PreparedInst) (*Bounds, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("bound: empty block")
	}
	for i, e := range entries {
		if e.DescErr != nil {
			return nil, fmt.Errorf("bound: instruction %d: %w", i, e.DescErr)
		}
	}
	return fromPrepared(cpu, entries, s)
}

// FromPrepared computes Analyze's bounds from one memo entry
// per instruction, reading each entry's Desc, encoding and register sets.
// It exists so blocklint can reuse the entries it already resolved, and so
// tests can perturb latency tables on copies of the entries (the
// monotonicity property). Encoding failures just drop the fetch term
// (weakening, never unsounding, the bound). It fails only if the
// dependence analysis does (see maxCycleRatio).
func FromPrepared(cpu *uarch.CPU, entries []*memo.PreparedInst) (*Bounds, error) {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	return fromPrepared(cpu, entries, s)
}

// maxPortCombos sizes the on-stack port-time profile; blocks using more
// distinct port combinations than this spill it to the heap.
const maxPortCombos = 32

func fromPrepared(cpu *uarch.CPU, entries []*memo.PreparedInst, s *Scratch) (*Bounds, error) {
	bs := &Bounds{}
	if len(entries) == 0 {
		return bs, nil
	}

	// Dependence term: exact maximum cycle ratio of the simulator-congruent
	// dependence graph.
	crit, p, q, err := chain(entries, s)
	if err != nil {
		return nil, err
	}
	bs.CritPath = crit
	if q > 0 {
		bs.DepChain = float64(p) / float64(q)
	}

	// Port term: every µop needs max(1, occupancy) cycles of some port in
	// its allowed combination (the simulator holds a port for `occupancy`
	// cycles when the unit is unpipelined, one dispatch cycle otherwise).
	var loadBuf [maxPortCombos]portmap.Load
	load := loadBuf[:0]
	fusedTotal, codeBytes := 0, 0
	var upper float64
	nLoads := 0
	for _, e := range entries {
		if e.EncErr == nil {
			codeBytes += len(e.Raw)
		}
		d := &e.Desc
		fusedTotal += d.FusedUops
		if d.Generic {
			bs.Vacuous = true
		}
		for _, u := range d.Uops {
			occ := float64(u.Occupancy)
			if occ < 1 {
				occ = 1
			}
			load = addLoad(load, u.Ports, occ)
			upper += float64(u.Lat) + occ
			if u.Class == uarch.ClassLoad {
				nLoads++
			}
		}
	}
	bs.PortPressure, bs.Ports = portmap.SubsetPressure(load)

	// Front-end term: fused-domain allocation is IssueWidth µops/cycle and
	// fetch is 16 code bytes/cycle; zero idioms and eliminated moves still
	// consume allocation slots.
	alloc := float64(fusedTotal) / float64(cpu.IssueWidth)
	fetch := float64(codeBytes) / fetchBytesPerCycle
	bs.FrontEnd = alloc
	if fetch > bs.FrontEnd {
		bs.FrontEnd = fetch
	}

	bs.decide()

	// Upper bound: fully serial execution — every µop waits out its
	// latency and unit occupancy, every fused µop takes an allocation
	// cycle, fetch runs at 16B/cycle, each load may additionally pay the
	// store-forwarding slack over the L1 hit it was billed, plus constant
	// pipeline slack. Sound for clean steady-state runs (no cache misses,
	// splits or subnormal penalties, which the boundcheck harness filters
	// by measurement status).
	fwdSlack := float64(cpu.FwdLatency - cpu.L1DLatency + 1)
	bs.Upper = upper + float64(fusedTotal) + fetch + float64(nLoads)*fwdSlack + 2
	return bs, nil
}

// addLoad adds cycles to the entry of load for ports, appending one if
// the combination is new.
func addLoad(load []portmap.Load, ports uarch.PortSet, cycles float64) []portmap.Load {
	for i := range load {
		if load[i].Ports == ports {
			load[i].Cycles += cycles
			return load
		}
	}
	return append(load, portmap.Load{Ports: ports, Cycles: cycles})
}

// decide sets Lower to the largest lower-bound term and Verdict to the
// term that attains it. Exact ties go to the throughput terms: the
// dependence term loses to the port term, which beats the front-end term.
func (bs *Bounds) decide() {
	bs.Lower, bs.Verdict = bs.PortPressure, VerdictPort
	if bs.FrontEnd > bs.Lower {
		bs.Lower, bs.Verdict = bs.FrontEnd, VerdictFrontEnd
	}
	if bs.DepChain > bs.Lower {
		bs.Lower, bs.Verdict = bs.DepChain, VerdictDepChain
	}
}
