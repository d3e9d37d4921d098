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

	// Scratch buffers recycled across Prepare/Execute/PrepareGraph calls;
	// entries backs the entries PrepareUnrolled resolves itself, and run
	// is the runner ExecuteMonitored executes on (its trace and access
	// arena, and the fault it hands the monitor).
	entries []*memo.PreparedInst
	run     exec.Runner
	items   []pipeline.Item
	code    []byte
	graph   pipeline.Graph
	prog    Program

	// What the machine carries across Retarget for the current trace
	// (last, the trace of the last ExecuteMonitored over prog): graphOK
	// says graph was built from it, and retime that the graph is still
	// timed for an earlier CPU whose µop shapes match; warmOK says warmI
	// and warmD hold both caches as the first WarmCaches over it left
	// them, from cold, in the current geometry. Reset, PrepareResolved and
	// ExecuteMonitored drop both (forget).
	last         []exec.Step
	graphOK      bool
	retime       bool
	warmOK       bool
	warmI, warmD cache.Cache
	descs        []*uarch.Desc
	work         Work
}

// Work counts how a machine prepared its timing runs: µop graphs built
// from the trace or retimed from the graph of an earlier µarch with the
// same µop shapes, and cache warm-ups walked over the trace or restored
// from the snapshot of the first walk.
type Work struct {
	Builds, Retimes, Walks, Restores uint64
}

// Since returns the work done after prev.
func (w Work) Since(prev Work) Work {
	return Work{w.Builds - prev.Builds, w.Retimes - prev.Retimes, w.Walks - prev.Walks, w.Restores - prev.Restores}
}

// Work returns the machine's cumulative work counts.
func (m *Machine) Work() Work { return m.work }

// forget drops the graph and the warm snapshot carried for the current
// trace: the program, its trace or the memory they describe changed.
func (m *Machine) forget() {
	m.graphOK, m.retime, m.warmOK = false, false, false
}

// current reports whether (p, steps) is the machine's program and the
// whole trace of its last monitored run — what the carried graph and warm
// snapshot were made from.
func (m *Machine) current(p *Program, steps []exec.Step) bool {
	return p == &m.prog && len(steps) == len(m.last) && len(steps) > 0 && &steps[0] == &m.last[0]
}

// New builds a machine for the given microarchitecture.
func New(cpu *uarch.CPU, seed int64) *Machine {
	m := &Machine{CPU: cpu, Rand: rand.New(rand.NewSource(seed))}
	m.Reset()
	return m
}

// Reset returns the machine to the state a fresh New would produce,
// recycling every allocation: it discards the address space and
// cold-resets both caches. A reset machine is measurement-identical to a
// fresh one: the address space restarts frame numbering and both caches
// cold-reset including their LRU clocks. The RNG is deliberately left
// untouched — deterministic timing never consumes it, and reseeding
// math/rand's 607-word state costs more than the rest of Reset combined.
// Callers using the noisy timing mode must reseed Rand themselves.
func (m *Machine) Reset() {
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
	m.forget()
}

// WarmCaches touches every instruction and data cache line the trace
// touches, in trace order, without paying for pipeline simulation. It
// establishes the same resident set as a full timing run: the measurement
// protocol only cares whether the subsequent timed run misses at all, and
// a timed run has zero misses exactly when each cache set sees at most
// associativity-many distinct lines — a property of the access set, not of
// the LRU ordering a particular warm-up leaves behind.
//
// The first warm-up of the current trace from cold caches is snapshotted;
// a later one from cold caches of the same geometry, after Retarget,
// restores the snapshot instead of walking again — the caches end exactly
// as the walk would leave them.
func (m *Machine) WarmCaches(p *Program, steps []exec.Step) {
	cold := m.L1I.Cold() && m.L1D.Cold()
	if cold && m.warmOK && m.current(p, steps) {
		m.L1I.CopyFrom(&m.warmI)
		m.L1D.CopyFrom(&m.warmD)
		m.work.Restores++
		return
	}
	m.walk(p, steps)
	m.work.Walks++
	if cold && m.current(p, steps) {
		m.warmI.CopyFrom(m.L1I)
		m.warmD.CopyFrom(m.L1D)
		m.warmOK = true
	}
}

// walk is WarmCaches' walk over the trace.
func (m *Machine) walk(p *Program, steps []exec.Step) {
	var (
		havePage bool
		pageBase uint64
		pagePhys uint64
	)
	for i := range steps {
		st := &steps[i]
		va, size := p.Addrs[i], int(p.Addrs[i+1]-p.Addrs[i])
		if base := va & vm.PageMask; havePage && base == pageBase {
			m.L1I.AccessRange(pagePhys+(va-base), size)
		} else if _, phys, ok := m.AS.Translate(va); ok {
			m.L1I.AccessRange(phys, size)
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
	// and the end address. Instruction i's code length is
	// Addrs[i+1]-Addrs[i].
	Addrs []uint64

	// entries are the resolved memo entries of the repeated block (its
	// description, length-changing-prefix flag and register-use sets,
	// shared and read-only): instruction i is a copy of
	// entries[i%len(entries)].
	entries []*memo.PreparedInst
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
	return &Program{Insts: p.Insts[:n], Addrs: p.Addrs[:n+1], entries: p.entries}
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
// combined memo hit each — and the program keeps those n entries, so
// preparing a 50× unroll costs the same lookups as preparing the block
// itself and only the addresses and code bytes grow with the unroll.
//
// The returned Program and its arrays are owned by the machine and remain
// valid until the next Prepare/PrepareUnrolled/PrepareResolved call on it
// (prefix views from Program.Slice share the same lifetime). Every caller
// in this repository prepares and consumes one program at a time.
func (m *Machine) PrepareUnrolled(insts []x86.Inst, n int) (*Program, error) {
	if n <= 0 || n > len(insts) {
		n = len(insts)
	}

	// Resolve the n distinct instructions once.
	arch := memo.For(m.CPU)
	pis := m.entries[:0]
	for i := 0; i < n; i++ {
		pi := arch.Prepared(&insts[i])
		if pi.Err != nil {
			m.entries = pis
			return nil, pi.Err
		}
		pis = append(pis, pi)
	}
	m.entries = pis
	m.prog.entries = pis
	return m.PrepareResolved(insts), nil
}

// PrepareResolved is PrepareUnrolled for a block whose memo entries the
// caller resolved itself and installed with Retarget: insts repeats that
// block, and PrepareResolved lays the copies out at CodeBase and maps the
// code. The program shares PrepareUnrolled's lifetime.
func (m *Machine) PrepareResolved(insts []x86.Inst) *Program {
	m.forget()
	p := &m.prog
	pis := p.entries
	p.Insts = insts
	p.Addrs = p.Addrs[:0]

	addr := uint64(CodeBase)
	code := m.code[:0]
	for i := range insts {
		raw := pis[i%len(pis)].Raw
		p.Addrs = append(p.Addrs, addr)
		addr += uint64(len(raw))
		code = append(code, raw...)
	}
	p.Addrs = append(p.Addrs, addr)
	m.code = code

	m.mapCode(code)
	return p
}

// Retarget makes m a core of cpu over the memory it already has: entries
// are the repeated block of the current program (or of the next
// PrepareResolved) resolved on cpu, none failing, and both caches restart
// cold with cpu's geometry. The address space, the code mapping, the
// program's addresses and the last trace stay as they are — the monitored
// run does not depend on the microarchitecture — so one run's trace is
// timed on every µarch that can run the block, with no copy. The caller
// keeps entries unchanged while the program is in use.
//
// What was prepared from the trace carries over where it does not depend
// on the µarch: when every entry has the µop shape of the one it replaces
// (pipeline.SameShape), the next PrepareGraph retimes the trace's graph
// instead of building it, and when the cache geometry is unchanged the
// next WarmCaches restores the first warm-up's caches instead of walking.
func (m *Machine) Retarget(cpu *uarch.CPU, entries []*memo.PreparedInst) *Program {
	if old := m.CPU; cpu.L1ISize != old.L1ISize || cpu.L1DSize != old.L1DSize ||
		cpu.L1Assoc != old.L1Assoc || cpu.LineSize != old.LineSize {
		m.L1I.Reshape(cpu.L1ISize, cpu.L1Assoc, cpu.LineSize)
		m.L1D.Reshape(cpu.L1DSize, cpu.L1Assoc, cpu.LineSize)
		m.warmOK = false
	} else {
		m.L1I.Reset()
		m.L1D.Reset()
	}
	if m.graphOK {
		if sameShape(m.prog.entries, entries) {
			m.retime = true
		} else {
			m.graphOK = false
		}
	}
	m.CPU = cpu
	m.prog.entries = entries
	return &m.prog
}

// sameShape reports whether two resolutions of one block give the same
// µop graph structure, entry by entry.
func sameShape(a, b []*memo.PreparedInst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !pipeline.SameShape(&a[i].Desc, &b[i].Desc) {
			return false
		}
	}
	return true
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
	m.forget()
	r := &m.run
	if r.Trace == nil {
		r.Trace = make([]exec.Step, 0, len(p.Insts))
	}
	r.State, r.AS, r.Record, r.OnFault = st, m.AS, true, onFault
	r.Trace, r.Acc = r.Trace[:0], r.Acc[:0]
	err := r.Run(p.Insts, p.Addrs)
	r.State, r.OnFault = nil, nil // drop the caller's references
	m.last = r.Trace
	return r.Trace, err
}

// Config controls a timing run.
type Config struct {
	// SwitchRate is the per-cycle context-switch probability; 0 = quiet.
	SwitchRate float64
	// SwitchCost is the cycle cost of one context switch.
	SwitchCost uint64
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
		ModeledFrontEnd: cfg.ModeledFrontEnd,
		LoopBody:        cfg.LoopBody,
	}
	if cfg.SwitchRate > 0 {
		pcfg.Rand = m.Rand
	}
	return pcfg
}

// PrepareGraph builds the µop dependence graph for a completed trace once,
// for reuse across many TimeGraph calls: it is the one route from a trace
// to the timing model. The graph is owned by the machine
// and valid until the next PrepareGraph call; prefix views for sliced
// programs come from Graph.Slice or, timed in the same pass, from
// TimeGraphPair. The trace itself may be released after
// this returns — the graph copies what timing needs.
//
// After Retarget to a µarch with the same µop shapes, the graph of the
// current trace is retimed (pipeline.Graph.Retime) rather than rebuilt;
// the result is the graph a build would give.
func (m *Machine) PrepareGraph(p *Program, steps []exec.Step) *pipeline.Graph {
	if m.graphOK && m.current(p, steps) {
		if m.retime {
			m.descs = m.descs[:0]
			for _, e := range m.prog.entries {
				m.descs = append(m.descs, &e.Desc)
			}
			m.graph.Retime(m.CPU, m.descs)
			m.retime = false
			m.work.Retimes++
		}
		return &m.graph
	}
	items := m.buildItems(p, steps)
	m.graph.Build(m.CPU, items)
	m.graphOK, m.retime = m.current(p, steps), false
	m.work.Builds++
	return &m.graph
}

// TimeGraph runs the cycle-level model over a prebuilt dependence graph
// and returns the performance counters; the per-run cost is the scheduling
// loop alone. Cache state persists across calls; use warm-up runs
// deliberately, as the measurement protocol does.
func (m *Machine) TimeGraph(g *pipeline.Graph, cfg Config) pipeline.Counters {
	return pipeline.SimulateGraph(m.CPU, g, m.L1I, m.L1D, m.pipelineConfig(cfg))
}

// TimeGraphPair is TimeGraph for g and, from the same scheduling pass,
// for its prefix g.Slice(nLo): the profiler's two unroll factors in one
// run (pipeline.SimulateGraphPair). ok is false, and lo zero, when the
// run missed in a cache, cfg injects context switches, or nLo is not a
// proper prefix.
func (m *Machine) TimeGraphPair(g *pipeline.Graph, nLo int, cfg Config) (hi, lo pipeline.Counters, ok bool) {
	return pipeline.SimulateGraphPair(m.CPU, g, nLo, m.L1I, m.L1D, m.pipelineConfig(cfg))
}

// buildItems converts the functional trace into timed pipeline items. The
// returned slice aliases a machine-owned scratch buffer reused across
// PrepareGraph calls.
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
	for i := range steps { // traces are the program in order
		st := &steps[i]
		pi := p.entries[i%len(p.entries)]
		it := &items[i]
		it.Desc = pi.Desc
		it.Load = st.Load
		it.Store = st.Store
		it.Subnormal = st.Subnormal
		it.CodeLen = int(p.Addrs[i+1] - p.Addrs[i])
		it.LCP = pi.LCP
		it.CodePhys = 0
		va := p.Addrs[i]
		if base := va & vm.PageMask; havePage && base == pageBase {
			it.CodePhys = pagePhys + (va - base)
		} else if _, phys, ok := m.AS.Translate(va); ok {
			it.CodePhys = phys
			havePage, pageBase, pagePhys = true, base, phys-(va-base)
		}
		it.AddrReads = pi.Addr
		it.DataReads = pi.Data
		it.Writes = pi.Writes
	}
	return items
}

// RegFlags re-exports the pipeline flags id for convenience.
const RegFlags = pipeline.RegFlags
