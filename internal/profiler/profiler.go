// Package profiler implements the BHive measurement framework: it profiles
// the steady-state throughput (cycles per iteration) of arbitrary x86-64
// basic blocks against the simulated machine.
//
// The methodology follows the paper:
//
//  1. A monitor intercepts the page faults of a measurement run, maps every
//     virtual page the block touches onto one chosen physical page, and
//     resumes the block, so the final trace of addresses is identical to
//     the mapping run's.
//  2. Registers and the physical page are initialized with a moderately
//     sized constant (0x12345600) so loaded values are usable pointers.
//  3. MXCSR is set to FTZ/DAZ to suppress gradual-underflow slowdowns.
//  4. Throughput is derived from two unroll factors:
//     (cycles(b,u) − cycles(b,u')) / (u − u'), which reaches steady state
//     without overflowing the instruction cache on large blocks.
//  5. A measurement is rejected unless the performance counters show zero
//     L1 data misses, zero L1 instruction misses, zero context switches and
//     zero cache-line-splitting accesses, and at least 8 of 16 samples are
//     clean and identical.
//
// Every technique can be disabled individually, which is how the paper's
// ablation tables are regenerated.
//
// The protocol splits into a functional half and a timing half. The
// functional half — the block's encoding (its identity, hashed into the
// sample seed), the unrolled code, and the monitored run that maps every
// page the block touches onto the physical page and records the trace —
// does not depend on the microarchitecture. So ProfileEach measures a
// block for several profilers (µarchs, or the stock and perturbed
// parameterizations of one) from one functional pass, and runs only the
// timing half per key, on the same address space and trace:
//
//   - the key's memo entries and unsupported check;
//   - the µop graph: built on the first key, retimed on every later key
//     whose µop shapes match (only the µop timings change);
//   - the cache warm-up: walked on the first key, restored from its
//     snapshot on every later key with the same L1 geometry;
//   - the timed run of both unroll factors and acceptance.
//
// Profile is its one-key case.
//
// The hot path is allocation-conscious: each Profiler recycles machines,
// architectural state and unroll buffers through an internal pool (so
// Profile is safe for concurrent use), the unrolled program is prepared
// once at the high unroll factor and sliced down for the low one, and the
// monitor maps all faulting pages in a single functional pass instead of
// restarting execution per fault.
package profiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"bhive/internal/exec"
	"bhive/internal/machine"
	"bhive/internal/memo"
	"bhive/internal/pipeline"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// InitPattern is the "moderately sized constant" used to initialize
// registers and memory.
const InitPattern = 0x12345600

// Options selects which measurement techniques are active.
type Options struct {
	// InitRegisters seeds all registers (and the physical page) with
	// InitPattern. Off in the Agner-script baseline.
	InitRegisters bool
	// MapPages runs the monitor that maps faulting pages. Off in the
	// baseline, where any memory access crashes the measurement.
	MapPages bool
	// SinglePhysPage maps every faulting virtual page to one physical
	// page; otherwise each virtual page gets its own frame (which defeats
	// the guaranteed-L1-hit property).
	SinglePhysPage bool
	// DerivedThroughput uses the two-unroll-factor formula; otherwise a
	// single naive unroll of NaiveUnroll copies is timed and divided.
	DerivedThroughput bool
	// DisableSubnormals sets MXCSR FTZ/DAZ during measurement.
	DisableSubnormals bool
	// FilterMisaligned rejects measurements with line-splitting accesses.
	FilterMisaligned bool

	NaiveUnroll     int // unroll factor for the naive method (paper: 100)
	MaxFaults       int // monitor gives up after this many mapped pages
	Samples         int // timings taken per unrolled program (paper: 16)
	MinCleanSamples int // identical clean timings required (paper: 8)

	// SwitchRate/SwitchCost model timer-interrupt noise per cycle.
	SwitchRate float64
	SwitchCost uint64

	// RealSampleNoise runs every one of the Samples timing runs through
	// the cycle-level model with interrupt injection enabled (slow but
	// fully faithful to the protocol). When false, the deterministic
	// timing run is taken once and per-sample interrupt arrivals are
	// drawn analytically — statistically equivalent, since an interrupted
	// sample is discarded either way.
	RealSampleNoise bool

	// ModeledFrontEnd times every run with the uiCA-style decoded front
	// end (predecode, MITE/DSB/LSD delivery, switch penalties) instead of
	// the 16-bytes-per-cycle fetch approximation. Off by default: the
	// paper's tables are produced by the legacy front end.
	ModeledFrontEnd bool
}

// DefaultOptions is the full BHive methodology.
func DefaultOptions() Options {
	return Options{
		InitRegisters:     true,
		MapPages:          true,
		SinglePhysPage:    true,
		DerivedThroughput: true,
		DisableSubnormals: true,
		FilterMisaligned:  true,
		NaiveUnroll:       100,
		MaxFaults:         64,
		Samples:           16,
		MinCleanSamples:   8,
		SwitchRate:        2e-7,
		SwitchCost:        50_000,
	}
}

// BaselineOptions is the Agner-script baseline (Table I row "None"): time
// an unrolled copy of the block in an unmodified execution context.
func BaselineOptions() Options {
	o := DefaultOptions()
	o.InitRegisters = false
	o.MapPages = false
	o.SinglePhysPage = false
	o.DerivedThroughput = false
	o.DisableSubnormals = false
	return o
}

// MappingOptions adds page mapping but keeps naive unrolling
// (Table I row "Mapping all accessed pages").
func MappingOptions() Options {
	o := DefaultOptions()
	o.DerivedThroughput = false
	return o
}

// Fingerprint encodes every Options field into a string, so any change in
// measurement configuration changes the checkpoint fingerprint: a journal
// written under other options restarts instead of resuming.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("%+v", o)
}

// Status classifies a profiling attempt.
type Status int

const (
	// StatusOK means the block was successfully profiled: it executed,
	// incurred no cache misses or context switches, and was reproducible.
	StatusOK Status = iota
	// StatusCrashed: the block faulted and could not be repaired by
	// mapping (or mapping was disabled), or raised #DE/#GP.
	StatusCrashed
	// StatusUnsupported: the microarchitecture cannot execute the block.
	StatusUnsupported
	// StatusCacheMiss: the timed run had L1 data or instruction misses.
	StatusCacheMiss
	// StatusMisaligned: a load or store crossed a cache-line boundary.
	StatusMisaligned
	// StatusUnstable: fewer than MinCleanSamples timings were clean.
	StatusUnstable
)

var statusNames = [...]string{
	"ok", "crashed", "unsupported", "cache-miss", "misaligned", "unstable",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "status?"
}

// Result is the outcome of profiling one basic block.
type Result struct {
	Status     Status
	Throughput float64 // cycles per iteration at steady state
	Err        error   // the fault for StatusCrashed/StatusUnsupported

	// Counters from the accepted timing run of the larger unroll factor.
	Counters pipeline.Counters
	// UnrollHi/UnrollLo are the unroll factors used.
	UnrollHi, UnrollLo int
	// PagesMapped is how many virtual pages the monitor installed.
	PagesMapped int
	// CleanSamples of Samples timings were interference-free.
	CleanSamples int
}

// Profiler measures basic blocks on one microarchitecture. It is safe for
// concurrent use by multiple goroutines.
type Profiler struct {
	CPU  *uarch.CPU
	Opts Options

	// Metrics, when non-nil, accumulates the measurement counts and the
	// per-status outcome histogram across every Profile call (shared by
	// all goroutines using this profiler).
	Metrics *Metrics

	pool sync.Pool // *scratch
}

// New builds a profiler with the given options.
func New(cpu *uarch.CPU, opts Options) *Profiler {
	return &Profiler{CPU: cpu, Opts: opts}
}

// scratch bundles the per-measurement state a Profile call needs, recycled
// across blocks so the steady-state hot path allocates almost nothing.
type scratch struct {
	m     *machine.Machine
	st    exec.State
	insts []x86.Inst

	// mon is the functional pass's page-fault monitor; onFault is its
	// method value, bound on first use so later passes allocate no closure.
	mon     monitor
	onFault func(*vm.Fault) bool

	// pass is the outcome FunctionalResolved hands its callback.
	pass Pass

	// Per-key state of ProfileEach: each key's resolved entries of the
	// block and whether the shared pass served it; ids are the block's
	// memo ids, interned once for every key, and raw is the block's
	// encoding, the identity behind its seed.
	ids    []memo.ID
	ents   [][]*memo.PreparedInst
	served []bool
	raw    []byte
}

// grow sizes the per-key state for k keys.
func (sc *scratch) grow(k int) {
	for len(sc.ents) < k {
		sc.ents = append(sc.ents, nil)
		sc.served = append(sc.served, false)
	}
	clear(sc.served[:k])
}

func (p *Profiler) getScratch() *scratch {
	if v := p.pool.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{}
}

// monitor is the protocol's page-fault policy: map each faulting page
// while mapping is on, the address is a mappable user address and fewer
// than budget pages are mapped; otherwise refuse and record why.
type monitor struct {
	p      *Profiler
	m      *machine.Machine
	budget int
	page   *vm.PhysPage // the single physical page, once chosen
	mapped int
	stop   Stop
}

func (mo *monitor) onFault(f *vm.Fault) bool {
	switch {
	case !mo.p.Opts.MapPages:
		mo.stop = StopNoMapping
	case !vm.ValidUserAddress(f.Addr):
		mo.stop = StopBadAddress
	case mo.mapped >= mo.budget:
		mo.stop = StopPageBudget
	default:
		mo.m.AS.Map(f.Addr, mo.frame())
		mo.mapped++
		return true
	}
	return false
}

// frame returns the physical page to map a faulting page onto, honoring
// the single-physical-page technique.
func (mo *monitor) frame() *vm.PhysPage {
	o := &mo.p.Opts
	if o.SinglePhysPage && mo.page != nil {
		return mo.page
	}
	f := mo.m.AS.NewPhysPage()
	if o.InitRegisters {
		f.Fill(InitPattern)
	}
	if o.SinglePhysPage {
		mo.page = f
	}
	return f
}

// machine returns the scratch machine reset to fresh-construction state
// as a core of cpu, with ents as its program's resolved block.
func (sc *scratch) machine(cpu *uarch.CPU, ents []*memo.PreparedInst) *machine.Machine {
	if sc.m == nil {
		// The machine RNG is reseeded before each use (accept), so its
		// construction seed is immaterial.
		sc.m = machine.New(cpu, 0)
	} else {
		sc.m.Reset()
	}
	sc.m.Retarget(cpu, ents)
	return sc.m
}

// unrolled builds unroll copies of insts in the scratch buffer.
func (sc *scratch) unrolled(insts []x86.Inst, unroll int) []x86.Inst {
	out := sc.insts[:0]
	for i := 0; i < unroll; i++ {
		out = append(out, insts...)
	}
	sc.insts = out
	return out
}

// resetState re-initializes the scratch architectural state exactly as a
// freshly allocated one.
func (p *Profiler) resetState(st *exec.State) *exec.State {
	*st = exec.State{}
	if p.Opts.InitRegisters {
		st.InitRegisters(InitPattern)
	}
	if p.Opts.DisableSubnormals {
		st.FTZ, st.DAZ = true, true
	}
	return st
}

// resolve looks the interned block ids up on cpu, appending each entry to
// dst, and returns the entries and the first failure to prepare an
// instruction, in instruction order. It stops at that failure unless all
// is set; the block identity (encoding) needs every instruction's
// encoding.
func resolve(cpu *uarch.CPU, ids []memo.ID, dst []*memo.PreparedInst, all bool) ([]*memo.PreparedInst, error) {
	arch := memo.For(cpu)
	var first error
	for _, id := range ids {
		e := arch.At(id)
		dst = append(dst, e)
		if e.Err != nil && first == nil {
			first = e.Err
			if !all {
				break
			}
		}
	}
	return dst, first
}

// encoding appends the block's machine code to dst: the encodings of its
// instructions, resolved on any microarchitecture, skipping those that do
// not encode. It is the block's identity — the hex is the canonical BHive
// corpus representation, and blockSeed hashes it.
func encoding(ents []*memo.PreparedInst, dst []byte) []byte {
	for _, e := range ents {
		if e.EncErr == nil {
			dst = append(dst, e.Raw...)
		}
	}
	return dst
}

// blockSeed derives a deterministic per-block RNG seed: the 64-bit FNV-1a
// hash of the block's encoding.
func blockSeed(code []byte) int64 {
	h := fnv.New64a()
	h.Write(code)
	return int64(h.Sum64())
}

// unrollSeed derives the RNG seed for one unroll factor's measurement.
// Each factor's stream depends only on (blockSeed, unroll) — not on how
// many measurements ran before it — so the hi and lo measurements are
// order-independent and skipping one cannot perturb the other.
func unrollSeed(seed int64, unroll int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(unroll))
	h.Write(b[:])
	return int64(h.Sum64())
}

// sampleRNG is a splitmix64 stream for the sample-acceptance draws.
// Seeding math/rand's 607-word lagged-Fibonacci state per measurement is
// measurable overhead on the hot path; the acceptance test only needs a
// deterministic uniform stream.
type sampleRNG uint64

func (r *sampleRNG) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *sampleRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// UnrollFactors picks the unroll factors the protocol would use for a
// block of n instructions: large enough to reach steady state while
// keeping the unrolled code compact (the point of the derived method).
// With DerivedThroughput off, lo is 0 and hi is the naive factor. It is
// exported so static analyses (internal/blocklint) can replicate the
// exact unrolled footprint the profiler will execute.
func (o Options) UnrollFactors(n int) (lo, hi int) {
	if !o.DerivedThroughput {
		u := o.NaiveUnroll
		if u <= 0 {
			u = 100
		}
		return 0, u
	}
	lo = (100 + n - 1) / n
	if lo < 4 {
		lo = 4
	}
	if lo > 50 {
		lo = 50
	}
	return lo, 2 * lo
}

// Profile measures one basic block. It is ProfileEach with one key.
func (p *Profiler) Profile(b *x86.Block) Result {
	var out [1]Result
	ProfileEach(b, []*Profiler{p}, out[:])
	return out[0]
}

// ProfileEach measures b with every profiler of ps, each on its own
// microarchitecture and metrics: out[i] is exactly what ps[i].Profile(b)
// returns, and each key's Metrics record is the one Profile makes. The
// µarch-independent half of the protocol — the block's encoding and seed,
// the unrolled code, the monitored run with its trace and mapped pages —
// is computed once for all keys; each key then runs only its own memo
// lookups (and unsupported check), the graph build or retime, the warm-up
// walk or restore, the timed run and the acceptance test, on the same
// address space and trace. The profilers must share Options (ProfileEach
// panics otherwise): the options decide the unroll factors and the
// monitored run. Each Metrics sink counts the functional pass once and
// the measurements it served, and how each prepared its graph and caches.
func ProfileEach(b *x86.Block, ps []*Profiler, out []Result) {
	if len(ps) == 0 {
		return
	}
	lead := ps[0]
	for _, p := range ps[1:] {
		if p.Opts != lead.Opts {
			panic("profiler: ProfileEach: the profilers' Options differ; a shared functional pass needs equal options")
		}
	}
	n := len(b.Insts)
	if n == 0 {
		for i, p := range ps {
			p.Metrics.record(StatusCrashed)
			out[i] = Result{Status: StatusCrashed}
		}
		return
	}

	sc := lead.getScratch()
	defer lead.pool.Put(sc)
	sc.grow(len(ps))

	// One walk interns the block for every key and resolves the lead
	// key's entries and the block's identity.
	var leadErr error
	sc.ids = memo.InternBlock(sc.ids[:0], b)
	sc.ents[0], leadErr = resolve(lead.CPU, sc.ids, sc.ents[0][:0], true)
	sc.raw = encoding(sc.ents[0], sc.raw[:0])
	seed := blockSeed(sc.raw)

	lo, hi := lead.Opts.UnrollFactors(n)
	var (
		pass    Pass
		passRan bool
	)
	for i, p := range ps {
		ents, err := sc.ents[0], leadErr
		if i > 0 {
			ents, err = resolve(p.CPU, sc.ids, sc.ents[i][:0], false)
			sc.ents[i] = ents
		}
		var res Result
		switch {
		case err != nil:
			res = failed(err, lo, hi)
		case !passRan:
			// Prepare once at the high factor; the low-factor program is
			// a prefix of the same prepared code. One monitored pass at
			// the high factor maps every page the block touches and
			// yields the dynamic trace; execution of a straight-line
			// block is deterministic and µarch-independent, so the pass
			// serves both factors of every key.
			pass, passRan = p.functional(sc, ents, b.Insts, hi, p.Opts.MaxFaults), true
		default:
			// Move the machine from the last key it served to this one.
			sc.m.Retarget(p.CPU, ents)
		}
		if err == nil {
			sc.served[i] = true
			if pass.Err != nil {
				res = failed(pass.Err, lo, hi)
			} else {
				w := sc.m.Work()
				res = p.time(sc.m, pass.Prog, pass.Steps, pass.PagesMapped, n, lo, hi, seed)
				p.Metrics.recordWork(sc.m.Work().Since(w))
			}
		}
		p.Metrics.record(res.Status)
		out[i] = res
	}
	if passRan {
		recordPass(ps, sc.served[:len(ps)])
	}
}

// recordPass counts one functional pass, and the measurements it served,
// in each distinct Metrics sink of the keys it served.
func recordPass(ps []*Profiler, served []bool) {
	for i, p := range ps {
		if !served[i] || p.Metrics == nil {
			continue
		}
		first, n := true, 0
		for j, q := range ps {
			if served[j] && q.Metrics == p.Metrics {
				if j < i {
					first = false
					break
				}
				n++
			}
		}
		if first {
			p.Metrics.recordPass(n)
		}
	}
}

// failed is the result of a block that could not be run: an instruction
// the µarch does not support, or any other preparation or execution
// failure.
func failed(err error, lo, hi int) Result {
	st := StatusCrashed
	if _, ok := err.(*uarch.UnsupportedError); ok {
		st = StatusUnsupported
	}
	return Result{Status: st, Err: err, UnrollLo: lo, UnrollHi: hi}
}

// Stop says why the protocol's functional pass ended before the last
// unrolled instruction. Every reason except StopNone makes the block
// StatusUnsupported (StopPrepare on an unsupported instruction) or
// StatusCrashed.
type Stop int

const (
	// StopNone: the pass ran to completion.
	StopNone Stop = iota
	// StopPrepare: machine.PrepareUnrolled failed (encode or describe).
	StopPrepare
	// StopNoMapping: a page fault with page mapping disabled.
	StopNoMapping
	// StopBadAddress: a page fault at an address that is not a mappable
	// user address.
	StopBadAddress
	// StopPageBudget: a page fault after MaxFaults pages were mapped.
	StopPageBudget
	// StopAlignment: an aligned vector move on a misaligned address (#GP).
	StopAlignment
	// StopDivide: a division raised #DE.
	StopDivide
	// StopUnimplemented: the executor does not implement the instruction.
	StopUnimplemented
	// StopExec: any other executor error.
	StopExec
)

// Pass is the functional half of the measurement protocol: the unrolled
// program prepared at the high unroll factor and its single monitored run.
type Pass struct {
	// Prog is the prepared program (nil when Stop is StopPrepare).
	Prog *machine.Program
	// Steps is the dynamic trace. When the run stopped it holds the
	// instructions before the stopping one, which is Prog.Insts[len(Steps)].
	Steps []exec.Step
	// PagesMapped is how many virtual pages the monitor installed.
	PagesMapped int
	// Stop is why the pass ended early, and Err the error that ended it
	// (both zero when the pass completed).
	Stop Stop
	Err  error
}

// functional runs the functional half of the protocol on the scratch
// machine: lay out unroll copies of insts, the block ents resolved on
// p.CPU, then one monitored pass that maps each faulting page (up to
// budget pages) and records the trace.
func (p *Profiler) functional(sc *scratch, ents []*memo.PreparedInst, insts []x86.Inst, unroll, budget int) Pass {
	m := sc.machine(p.CPU, ents)
	prog := m.PrepareResolved(sc.unrolled(insts, unroll))

	// The monitor repairs each fault and resumes in place, so the trace is
	// identical to a clean run's.
	sc.mon = monitor{p: p, m: m, budget: budget}
	if sc.onFault == nil {
		sc.onFault = sc.mon.onFault
	}
	pass := Pass{Prog: prog}
	pass.Steps, pass.Err = m.ExecuteMonitored(prog, p.resetState(&sc.st), sc.onFault)
	pass.PagesMapped, pass.Stop = sc.mon.mapped, sc.mon.stop
	sc.mon = monitor{} // drop the references before the scratch is pooled
	if pass.Err == nil {
		return pass
	}
	var (
		ae *exec.AlignmentError
		ue *exec.UnimplementedError
	)
	switch {
	case pass.Stop != StopNone:
		// A fault the monitor refused; onFault recorded why.
	case errors.As(pass.Err, &ae):
		pass.Stop = StopAlignment
	case errors.Is(pass.Err, exec.DivideError{}):
		pass.Stop = StopDivide
	case errors.As(pass.Err, &ue):
		pass.Stop = StopUnimplemented
	default:
		pass.Stop = StopExec
	}
	return pass
}

// Functional runs the functional half of the measurement protocol for b —
// the unrolled program at the high unroll factor, then the single
// monitored pass profile times — and calls fn with the outcome. The pass
// aliases pooled buffers and is valid only until fn returns. b must be
// non-empty.
func (p *Profiler) Functional(b *x86.Block, fn func(*Pass)) {
	p.FunctionalResolved(b.Insts, memo.For(p.CPU).ResolveIDs(nil, memo.InternBlock(nil, b)), fn)
}

// FunctionalResolved is Functional for a block whose instructions insts
// the caller has already resolved on p.CPU as ents (memo.InternBlock,
// then memo.Arch.ResolveIDs), so they are not looked up again.
func (p *Profiler) FunctionalResolved(insts []x86.Inst, ents []*memo.PreparedInst, fn func(*Pass)) {
	sc := p.getScratch()
	defer p.pool.Put(sc)
	for _, e := range ents {
		if e.Err != nil {
			sc.pass = Pass{Stop: StopPrepare, Err: e.Err}
			fn(&sc.pass)
			return
		}
	}
	_, hi := p.Opts.UnrollFactors(len(insts))
	sc.pass = p.functional(sc, ents, insts, hi, p.Opts.MaxFaults)
	fn(&sc.pass)
}

// time runs the timing half of the protocol on p's microarchitecture for
// the monitored run of an n-instruction block: prog is the high-factor
// program described for p.CPU on m, steps its trace.
func (p *Profiler) time(m *machine.Machine, prog *machine.Program, steps []exec.Step, pagesMapped, n, lo, hi int, seed int64) Result {
	res := Result{UnrollLo: lo, UnrollHi: hi}

	// The µop dependence graph is built once; the low factor's graph is a
	// prefix view of it.
	g := m.PrepareGraph(prog, steps)

	cHi, r, cLo, r2 := p.measure(m, prog, g, steps, n, lo, hi, seed)
	r.PagesMapped = pagesMapped
	if r.Status != StatusOK {
		r.UnrollLo, r.UnrollHi = lo, hi
		return r
	}
	res.Counters = r.Counters
	res.PagesMapped = r.PagesMapped
	res.CleanSamples = r.CleanSamples

	if !p.Opts.DerivedThroughput {
		res.Throughput = float64(cHi) / float64(hi)
		return res
	}
	if r2.Status != StatusOK {
		r2.UnrollLo, r2.UnrollHi = lo, hi
		r2.PagesMapped = pagesMapped
		return r2
	}
	if cHi <= cLo {
		res.Status = StatusUnstable
		return res
	}
	res.Throughput = float64(cHi-cLo) / float64(hi-lo)
	return res
}

// timing is the base timing configuration for a block of n instructions:
// the front-end mode and, for the modeled front end, the loop body (an
// unrolled program is unroll iterations of the block).
func (p *Profiler) timing(n int) machine.Config {
	base := machine.Config{ModeledFrontEnd: p.Opts.ModeledFrontEnd}
	if p.Opts.ModeledFrontEnd {
		base.LoopBody = n
	}
	return base
}

// measure runs the measurement protocol on the high-factor program of an
// n-instruction block and, with derived throughput, on its low-factor
// prefix; the low result is zero unless the high one is accepted. The
// program's pages are already mapped (profile's monitored pass), its
// trace is already known (deterministic execution — the trace doubles as
// the timed run's), and its dependence graph is already built.
//
// One scheduling pass times both factors: the low program is a prefix of
// the high one, so its timed run is derived from the high run
// (machine.TimeGraphPair). The derivation holds whenever the high run can
// be accepted: acceptance rejects any run that missed in a cache, the
// base timing injects no context switches, and 0 < nLo < n·hi.
func (p *Profiler) measure(m *machine.Machine, prog *machine.Program, g *pipeline.Graph, steps []exec.Step, n, lo, hi int, seed int64) (cHi uint64, rHi Result, cLo uint64, rLo Result) {
	base := p.timing(n)
	nLo := 0
	if p.Opts.DerivedThroughput {
		nLo = n * lo
	}

	// Warm-up: all memory accesses made by the basic block are legal and
	// (with the single-page mapping) hit L1. Only the cache resident set
	// matters here, so the warm-up touches lines directly rather than
	// paying for a full pipeline simulation.
	m.WarmCaches(prog, steps)
	ctrHi, ctrLo, derived := m.TimeGraphPair(g, nLo, base)
	cHi, rHi = p.accept(m, g, base, ctrHi, hi, seed)
	if rHi.Status != StatusOK || nLo == 0 {
		return cHi, rHi, 0, Result{}
	}

	if !derived {
		panic(fmt.Sprintf("profiler: invariant violated: an accepted high run (%d instructions) did not derive "+
			"its %d-instruction low run; accepted runs hit in both caches and the base timing injects no "+
			"context switches", len(steps), nLo))
	}
	// The low measurement reuses the machine: its page working set is a
	// subset of the high run's (same code prefix, same initial state), so
	// the mapping is already in place.
	gLo := g.Slice(nLo)
	if p.Opts.RealSampleNoise {
		// The noisy samples start from the cache state the high
		// samples left, which their context switches may have flushed:
		// re-establish the low program's resident set first. Without
		// them nothing reads the caches again.
		m.WarmCaches(prog.Slice(nLo), steps[:nLo])
	}
	cLo, rLo = p.accept(m, &gLo, base, ctrLo, lo, seed)
	return cHi, rHi, cLo, rLo
}

// accept applies the acceptance half of the protocol to one unrolled
// program's timed run ctr: the sample check, then the modeling
// assumptions. It returns the cycle count to use and the verdict.
func (p *Profiler) accept(m *machine.Machine, g *pipeline.Graph, base machine.Config, ctr pipeline.Counters, unroll int, seed int64) (uint64, Result) {
	var res Result
	o := &p.Opts
	res.Counters = ctr

	rng := sampleRNG(unrollSeed(seed, unroll))
	if o.RealSampleNoise {
		// Only the fully-faithful mode consumes the machine RNG (for
		// interrupt arrivals); seeding it otherwise is wasted work.
		m.Rand = rand.New(rand.NewSource(int64(rng.next())))
	}

	// Sample acceptance. The paper times each unrolled block 16 times and
	// requires at least 8 clean, identical timings.
	samples := o.Samples
	if samples <= 0 {
		samples = 16
	}
	clean := 0
	if o.RealSampleNoise {
		// Fully faithful: every sample is a separate timing run with
		// interrupt injection; clean samples are those with no context
		// switch, and they must agree on the cycle count. The functional
		// re-execution per sample is gone — the trace is deterministic, so
		// each sample is the scheduling loop over the prepared graph.
		counts := make(map[uint64]int)
		for s := 0; s < samples; s++ {
			scfg := base
			scfg.SwitchRate, scfg.SwitchCost = o.SwitchRate, o.SwitchCost
			c := m.TimeGraph(g, scfg)
			if c.ContextSwitches == 0 {
				counts[c.Cycles]++
			}
		}
		for _, n := range counts {
			if n > clean {
				clean = n // the largest identical clean group
			}
		}
	} else {
		// The deterministic pipeline yields identical clean timings; timer
		// interrupts dirty individual samples at a rate proportional to
		// the measurement length.
		dirtyProb := 0.0
		if o.SwitchRate > 0 {
			dirtyProb = 1 - math.Exp(-o.SwitchRate*float64(ctr.Cycles))
		}
		for s := 0; s < samples; s++ {
			if rng.float64() >= dirtyProb {
				clean++
			}
		}
	}
	res.CleanSamples = clean
	minClean := o.MinCleanSamples
	if minClean <= 0 {
		minClean = 8
	}
	if clean < minClean {
		res.Status = StatusUnstable
		return 0, res
	}

	// Modeling-assumption enforcement.
	if ctr.L1DReadMisses+ctr.L1DWriteMisses > 0 || ctr.L1IMisses > 0 {
		res.Status = StatusCacheMiss
		return ctr.Cycles, res
	}
	if o.FilterMisaligned && ctr.MisalignedLoads+ctr.MisalignedStores > 0 {
		res.Status = StatusMisaligned
		return ctr.Cycles, res
	}

	res.Status = StatusOK
	return ctr.Cycles, res
}

// MeasureRaw times one unrolled program without any acceptance filtering
// and returns the raw counters — used by the per-block ablation study
// (Table II), where even broken configurations report a number.
func (p *Profiler) MeasureRaw(b *x86.Block, unroll int) (pipeline.Counters, error) {
	o := &p.Opts
	sc := p.getScratch()
	defer p.pool.Put(sc)
	sc.grow(1)
	sc.ids = memo.InternBlock(sc.ids[:0], b)
	ents, err := resolve(p.CPU, sc.ids, sc.ents[0][:0], false)
	sc.ents[0] = ents
	if err != nil {
		return pipeline.Counters{}, err
	}
	// The ablation's monitor tolerates one fault beyond MaxFaults.
	pass := p.functional(sc, ents, b.Insts, unroll, o.MaxFaults+1)
	if pass.Err != nil {
		return pipeline.Counters{}, pass.Err
	}
	m, prog, steps := sc.m, pass.Prog, pass.Steps
	g := m.PrepareGraph(prog, steps)
	base := p.timing(len(b.Insts))
	m.TimeGraph(g, base) // warm-up
	return m.TimeGraph(g, base), nil
}
