// Package machine composes the substrates — virtual memory, caches, the
// functional executor and the cycle-level pipeline — into a Machine: the
// simulated silicon that the BHive measurement framework profiles.
package machine

import (
	"math/rand"

	"bhive/internal/cache"
	"bhive/internal/exec"
	"bhive/internal/memo"
	"bhive/internal/pipeline"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// CodeBase is the virtual address where benchmark code is mapped.
const CodeBase = 0x400000

// Machine is one simulated core with its memory system.
type Machine struct {
	CPU *uarch.CPU
	AS  *vm.AddressSpace
	L1I *cache.Cache
	L1D *cache.Cache

	// Rand drives context-switch arrivals in noisy timing mode.
	Rand *rand.Rand

	codeFrames []*vm.PhysPage // frames backing the code mapping
	codeLen    int

	// Scratch buffers recycled across Prepare/Execute/Time calls.
	trace []exec.Step
	acc   []exec.MemAccess
	items []pipeline.Item
	code  []byte
	graph pipeline.Graph
	prog  Program
	pis   []*memo.PreparedInst
}

// New builds a machine for the given microarchitecture.
func New(cpu *uarch.CPU, seed int64) *Machine {
	m := &Machine{CPU: cpu, Rand: rand.New(rand.NewSource(seed))}
	m.ResetMemory()
	return m
}

// ResetMemory discards the address space and cold-resets both caches.
func (m *Machine) ResetMemory() {
	if m.AS == nil {
		m.AS = vm.New()
		m.L1I = cache.New(m.CPU.L1ISize, m.CPU.L1Assoc, m.CPU.LineSize)
		m.L1D = cache.New(m.CPU.L1DSize, m.CPU.L1Assoc, m.CPU.LineSize)
	} else {
		m.AS.Reset()
		m.L1I.Reset()
		m.L1D.Reset()
	}
	m.codeFrames = m.codeFrames[:0]
	m.codeLen = 0
}

// Reset returns the machine to the state a fresh New would produce,
// recycling every allocation. A reset machine is measurement-identical to
// a fresh one: the address space restarts frame numbering and both caches
// cold-reset including their LRU clocks. The RNG is deliberately left
// untouched — deterministic timing never consumes it, and reseeding
// math/rand's 607-word state costs more than the rest of Reset combined.
// Callers using the noisy timing mode must reseed Rand themselves.
func (m *Machine) Reset() {
	m.ResetMemory()
}

// WarmCaches touches every instruction and data cache line the trace
// touches, in trace order, without paying for pipeline simulation. It
// establishes the same resident set as a full timing run: the measurement
// protocol only cares whether the subsequent timed run misses at all, and
// a timed run has zero misses exactly when each cache set sees at most
// associativity-many distinct lines — a property of the access set, not of
// the LRU ordering a particular warm-up leaves behind.
func (m *Machine) WarmCaches(p *Program, steps []exec.Step) {
	var (
		havePage bool
		pageBase uint64
		pagePhys uint64
	)
	for i := range steps {
		st := &steps[i]
		idx := i % len(p.Insts)
		va := p.Addrs[idx]
		if base := va & vm.PageMask; havePage && base == pageBase {
			m.L1I.AccessRange(pagePhys+(va-base), p.Lens[idx])
		} else if _, phys, ok := m.AS.Translate(va); ok {
			m.L1I.AccessRange(phys, p.Lens[idx])
			havePage, pageBase, pagePhys = true, base, phys-(va-base)
		}
		if st.Load != nil {
			m.L1D.AccessRange(st.Load.Phys, int(st.Load.Size))
		}
		if st.Store != nil {
			m.L1D.AccessRange(st.Store.Phys, int(st.Store.Size))
		}
	}
}

// Program is a prepared (encoded, described, address-assigned) instruction
// sequence ready for execution and timing.
type Program struct {
	Insts []x86.Inst
	// Addrs has len(Insts)+1 entries: each instruction's virtual address
	// and the end address.
	Addrs []uint64
	Lens  []int
	Descs []uarch.Desc
	// LCPs marks instructions whose encoding carries a length-changing
	// prefix (x86.LengthChangingPrefix), for the modeled front end.
	LCPs []bool

	// Register-use sets per instruction, precomputed at Prepare time so
	// timing runs do not re-derive them per dynamic instruction. The
	// slices are shared memo entries — read-only.
	AddrReads [][]uint8
	DataReads [][]uint8
	Writes    [][]uint8
}

// CodeSize returns the program's encoded size in bytes — what determines
// whether an unrolled block still fits in the instruction cache.
func (p *Program) CodeSize() int {
	return int(p.Addrs[len(p.Addrs)-1] - p.Addrs[0])
}

// Slice returns a program consisting of the first n instructions, sharing
// the prepared metadata. The profiler uses this to derive the low-unroll
// program from the high-unroll one instead of re-encoding and re-mapping:
// the underlying code mapping stays valid because the prefix occupies the
// same addresses.
func (p *Program) Slice(n int) *Program {
	return &Program{
		Insts:     p.Insts[:n],
		Addrs:     p.Addrs[:n+1],
		Lens:      p.Lens[:n],
		Descs:     p.Descs[:n],
		LCPs:      p.LCPs[:n],
		AddrReads: p.AddrReads[:n],
		DataReads: p.DataReads[:n],
		Writes:    p.Writes[:n],
	}
}

// Prepare encodes insts, maps the code pages (each to its own physical
// frame), and resolves each instruction's micro-op description. It returns
// uarch.UnsupportedError if the CPU cannot execute an instruction.
// Encoding and description lookups are memoized process-wide.
func (m *Machine) Prepare(insts []x86.Inst) (*Program, error) {
	return m.PrepareUnrolled(insts, len(insts))
}

// PrepareUnrolled is Prepare for a program that repeats its first n
// instructions (an unrolled basic block): encoding, description and
// register-set lookups run once per distinct instruction — a single
// combined memo hit each — and the results are replicated across the
// copies, so preparing a 50× unroll costs the same lookups as preparing
// the block itself.
//
// The returned Program and its arrays are owned by the machine and remain
// valid until the next Prepare/PrepareUnrolled call on it (prefix views
// from Program.Slice share the same lifetime). Every caller in this
// repository prepares and consumes one program at a time.
func (m *Machine) PrepareUnrolled(insts []x86.Inst, n int) (*Program, error) {
	total := len(insts)
	if n <= 0 || n > total {
		n = total
	}

	// Resolve the n distinct instructions once.
	arch := memo.For(m.CPU)
	pis := m.pis[:0]
	for i := 0; i < n; i++ {
		pi := arch.Prepared(&insts[i])
		if pi.Err != nil {
			m.pis = pis
			return nil, pi.Err
		}
		pis = append(pis, pi)
	}
	m.pis = pis

	p := &m.prog
	p.Insts = insts
	p.Addrs = p.Addrs[:0]
	p.Lens = p.Lens[:0]
	p.Descs = p.Descs[:0]
	p.LCPs = p.LCPs[:0]
	p.AddrReads = p.AddrReads[:0]
	p.DataReads = p.DataReads[:0]
	p.Writes = p.Writes[:0]

	addr := uint64(CodeBase)
	code := m.code[:0]
	for i := 0; i < total; i++ {
		pi := pis[i%n]
		p.Addrs = append(p.Addrs, addr)
		p.Lens = append(p.Lens, len(pi.Raw))
		p.Descs = append(p.Descs, pi.Desc)
		p.LCPs = append(p.LCPs, pi.LCP)
		p.AddrReads = append(p.AddrReads, pi.Addr)
		p.DataReads = append(p.DataReads, pi.Data)
		p.Writes = append(p.Writes, pi.Writes)
		addr += uint64(len(pi.Raw))
		code = append(code, pi.Raw...)
	}
	p.Addrs = append(p.Addrs, addr)
	m.code = code

	m.mapCode(code)
	return p, nil
}

// mapCode installs the code bytes at CodeBase on dedicated frames.
func (m *Machine) mapCode(code []byte) {
	m.codeFrames = m.codeFrames[:0]
	m.codeLen = len(code)
	for off := 0; off < len(code) || off == 0; off += vm.PageSize {
		frame := m.AS.NewPhysPage()
		copy(frame.Data[:], code[off:])
		m.AS.Map(CodeBase+uint64(off), frame)
		m.codeFrames = append(m.codeFrames, frame)
	}
}

// RemapCode restores the code mapping after UnmapAll.
func (m *Machine) RemapCode() {
	for i, frame := range m.codeFrames {
		m.AS.Map(CodeBase+uint64(i*vm.PageSize), frame)
	}
}

// Execute runs the program functionally on the given state, returning the
// dynamic trace. Page faults, divide errors and alignment faults surface
// as errors exactly as signals would.
//
// The returned trace aliases a buffer owned by the machine: it is valid
// until the next Execute call on this machine.
func (m *Machine) Execute(p *Program, st *exec.State) ([]exec.Step, error) {
	return m.ExecuteMonitored(p, st, nil)
}

// ExecuteMonitored is Execute with a page-fault monitor attached: onFault
// is called for every fault, and returning true (after repairing the
// mapping) resumes execution in place. This is the batched form of the
// paper's monitor protocol — one functional pass discovers and maps every
// page the block touches.
func (m *Machine) ExecuteMonitored(p *Program, st *exec.State, onFault func(f *vm.Fault) bool) ([]exec.Step, error) {
	if m.trace == nil {
		m.trace = make([]exec.Step, 0, len(p.Insts))
	}
	r := &exec.Runner{State: st, AS: m.AS, Record: true, Trace: m.trace[:0], Acc: m.acc[:0], OnFault: onFault}
	err := r.Run(p.Insts, p.Addrs)
	m.trace = r.Trace[:0] // keep the (possibly grown) buffers
	m.acc = r.Acc
	if err != nil {
		return r.Trace, err
	}
	return r.Trace, nil
}

// Config controls a timing run.
type Config struct {
	// SwitchRate is the per-cycle context-switch probability; 0 = quiet.
	SwitchRate float64
	// SwitchCost is the cycle cost of one context switch.
	SwitchCost uint64
	// Reference selects the pipeline's retained cycle-by-cycle scheduler
	// instead of the event-driven one (differential testing only).
	Reference bool
	// ModeledFrontEnd selects the uiCA-style decoded front end
	// (pipeline.Config.ModeledFrontEnd); LoopBody is its iteration length
	// in instructions (the basic-block size of an unrolled program).
	ModeledFrontEnd bool
	LoopBody        int
}

func (m *Machine) pipelineConfig(cfg Config) pipeline.Config {
	pcfg := pipeline.Config{
		SwitchRate:      cfg.SwitchRate,
		SwitchCost:      cfg.SwitchCost,
		Reference:       cfg.Reference,
		ModeledFrontEnd: cfg.ModeledFrontEnd,
		LoopBody:        cfg.LoopBody,
	}
	if cfg.SwitchRate > 0 {
		pcfg.Rand = m.Rand
	}
	return pcfg
}

// Time runs the cycle-level model over a completed trace and returns the
// performance counters. Cache state persists across calls; use warm-up
// runs deliberately, as the measurement protocol does.
func (m *Machine) Time(p *Program, steps []exec.Step, cfg Config) pipeline.Counters {
	items := m.buildItems(p, steps)
	return pipeline.Simulate(m.CPU, items, m.L1I, m.L1D, m.pipelineConfig(cfg))
}

// PrepareGraph builds the µop dependence graph for a completed trace once,
// for reuse across many TimeGraph calls. The graph is owned by the machine
// and valid until the next PrepareGraph call; prefix views for sliced
// programs come from Graph.Slice. The trace itself may be released after
// this returns — the graph copies what timing needs.
func (m *Machine) PrepareGraph(p *Program, steps []exec.Step) *pipeline.Graph {
	items := m.buildItems(p, steps)
	m.graph.Build(m.CPU, items)
	return &m.graph
}

// TimeGraph is Time over a prebuilt dependence graph: the per-run cost is
// the scheduling loop alone. Cache state persists across calls exactly as
// with Time. Reference is not honored here — the reference scheduler
// consumes items, not graphs; differential tests go through Time.
func (m *Machine) TimeGraph(g *pipeline.Graph, cfg Config) pipeline.Counters {
	return pipeline.SimulateGraph(m.CPU, g, m.L1I, m.L1D, m.pipelineConfig(cfg))
}

// buildItems converts the functional trace into timed pipeline items. The
// returned slice aliases a machine-owned scratch buffer reused across Time
// calls.
func (m *Machine) buildItems(p *Program, steps []exec.Step) []pipeline.Item {
	if cap(m.items) < len(steps) {
		m.items = make([]pipeline.Item, len(steps))
	}
	items := m.items[:len(steps)]
	// Code-page translation cache: instruction addresses walk forward
	// through a handful of pages, so remember the last page translated.
	var (
		havePage bool
		pageBase uint64
		pagePhys uint64
	)
	for i := range steps {
		st := &steps[i]
		idx := i % len(p.Insts) // traces are the program in order
		it := &items[i]
		it.Desc = p.Descs[idx]
		it.Load = st.Load
		it.Store = st.Store
		it.Subnormal = st.Subnormal
		it.CodeLen = p.Lens[idx]
		it.LCP = p.LCPs[idx]
		it.CodePhys = 0
		va := p.Addrs[idx]
		if base := va & vm.PageMask; havePage && base == pageBase {
			it.CodePhys = pagePhys + (va - base)
		} else if _, phys, ok := m.AS.Translate(va); ok {
			it.CodePhys = phys
			havePage, pageBase, pagePhys = true, base, phys-(va-base)
		}
		it.AddrReads = p.AddrReads[idx]
		it.DataReads = p.DataReads[idx]
		it.Writes = p.Writes[idx]
	}
	return items
}

// RegFlags re-exports the pipeline flags id for convenience.
const RegFlags = pipeline.RegFlags
