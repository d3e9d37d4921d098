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
// The hot path is allocation-conscious: each Profiler recycles machines,
// architectural state and unroll buffers through an internal pool (so
// Profile is safe for concurrent use), the unrolled program is prepared
// once at the high unroll factor and sliced down for the low one, and the
// monitor maps all faulting pages in a single functional pass instead of
// restarting execution per fault.
package profiler

import (
	"encoding/binary"
	"encoding/hex"
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
	"bhive/internal/profcache"
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
// measurement configuration changes persistent-cache keys.
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

	// Cache, when non-nil, is consulted before profiling and updated
	// after, keyed by (block bytes, microarchitecture, options, seed).
	Cache *profcache.Cache

	// Metrics, when non-nil, accumulates cache-hit counts and the
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
}

func (p *Profiler) getScratch() *scratch {
	if v := p.pool.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{}
}

// machine returns the scratch machine reset to fresh-construction state.
func (sc *scratch) machine(cpu *uarch.CPU, seed int64) *machine.Machine {
	if sc.m == nil || sc.m.CPU != cpu {
		sc.m = machine.New(cpu, seed)
	} else {
		sc.m.Reset()
	}
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

// blockSeed derives a deterministic per-block RNG seed.
func blockSeed(insts []x86.Inst) int64 {
	h := fnv.New64a()
	for i := range insts {
		if e := memo.Inst(&insts[i]); e.EncErr == nil {
			h.Write(e.Raw)
		}
	}
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

// blockHex is the lowercase hex of the block's encoded bytes — the
// canonical BHive corpus representation, used as the cache identity.
func blockHex(insts []x86.Inst) string {
	var buf []byte
	for i := range insts {
		if e := memo.Inst(&insts[i]); e.EncErr == nil {
			buf = append(buf, e.Raw...)
		}
	}
	return hex.EncodeToString(buf)
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

// Profile measures one basic block.
func (p *Profiler) Profile(b *x86.Block) Result {
	if len(b.Insts) == 0 {
		p.Metrics.record(StatusCrashed, false)
		return Result{Status: StatusCrashed}
	}
	seed := blockSeed(b.Insts)
	if p.Cache == nil {
		res := p.profile(b, seed)
		p.Metrics.record(res.Status, false)
		return res
	}
	key := profcache.Key(blockHex(b.Insts), p.CPU.Name, p.Opts.Fingerprint(), seed)
	if e, ok := p.Cache.Get(key); ok {
		res := resultFromEntry(e)
		p.Metrics.record(res.Status, true)
		return res
	}
	res := p.profile(b, seed)
	p.Cache.Put(key, entryFromResult(res))
	p.Metrics.record(res.Status, false)
	return res
}

// profile runs the measurement protocol, bypassing the persistent cache.
func (p *Profiler) profile(b *x86.Block, seed int64) Result {
	lo, hi := p.Opts.UnrollFactors(len(b.Insts))
	res := Result{UnrollLo: lo, UnrollHi: hi}

	sc := p.getScratch()
	defer p.pool.Put(sc)

	// Prepare once at the high factor; the low-factor program is a prefix
	// of the same prepared code, so it is derived by slicing.
	m := sc.machine(p.CPU, seed)
	prog, err := m.PrepareUnrolled(sc.unrolled(b.Insts, hi), len(b.Insts))
	if err != nil {
		if _, ok := err.(*uarch.UnsupportedError); ok {
			return Result{Status: StatusUnsupported, Err: err, UnrollLo: lo, UnrollHi: hi}
		}
		return Result{Status: StatusCrashed, Err: err, UnrollLo: lo, UnrollHi: hi}
	}

	// One monitored functional pass at the high factor maps every page the
	// block touches and yields the dynamic trace. The monitor repairs each
	// fault and resumes in place, so this trace is identical to a clean
	// run's; execution of a straight-line block is deterministic, so the
	// low factor's trace is its prefix. One pass therefore serves the
	// warm-ups and every timing of both factors. The chosen physical page
	// is shared by both, exactly as the page mapping itself is.
	var thePage *vm.PhysPage
	pagesMapped := 0
	onFault := func(f *vm.Fault) bool {
		if !p.Opts.MapPages || !vm.ValidUserAddress(f.Addr) || pagesMapped >= p.Opts.MaxFaults {
			return false
		}
		m.AS.Map(f.Addr, p.pageFor(m, &thePage))
		pagesMapped++
		return true
	}
	steps, err := m.ExecuteMonitored(prog, p.resetState(&sc.st), onFault)
	if err != nil {
		return Result{Status: StatusCrashed, Err: err, UnrollLo: lo, UnrollHi: hi}
	}

	// The µop dependence graph is likewise built once; the low factor's
	// graph is a prefix view of it.
	g := m.PrepareGraph(prog, steps)

	cHi, r := p.measureOn(m, prog, g, steps, hi, seed)
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

	// The low measurement reuses the machine: its page working set is a
	// subset of the high run's (same code prefix, same initial state), so
	// the mapping is already in place and the warm-up run re-establishes
	// the cache state the protocol requires.
	nLo := len(b.Insts) * lo
	cLo, r2 := p.measureOn(m, prog.Slice(nLo), g.Slice(nLo), steps[:nLo], lo, seed)
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

// pageFor returns the frame to map a faulting page to, honoring the
// single-physical-page technique.
func (p *Profiler) pageFor(m *machine.Machine, thePage **vm.PhysPage) *vm.PhysPage {
	if p.Opts.SinglePhysPage {
		if *thePage == nil {
			*thePage = m.AS.NewPhysPage()
			if p.Opts.InitRegisters {
				(*thePage).Fill(InitPattern)
			}
		}
		return *thePage
	}
	f := m.AS.NewPhysPage()
	if p.Opts.InitRegisters {
		f.Fill(InitPattern)
	}
	return f
}

// measureOn runs the measurement protocol for one unrolled program whose
// pages are already mapped (profile's monitored pass), whose trace is
// already known (deterministic execution — the trace doubles as the timed
// run's), and whose dependence graph is already built. The per-factor cost
// is the warm-up walk plus scheduling runs.
func (p *Profiler) measureOn(m *machine.Machine, prog *machine.Program, g *pipeline.Graph, steps []exec.Step, unroll int, seed int64) (uint64, Result) {
	var res Result
	o := &p.Opts

	// Base timing configuration: the front-end mode and the block size
	// (the modeled front end treats the unrolled program as `unroll`
	// iterations of the basic block).
	base := machine.Config{ModeledFrontEnd: o.ModeledFrontEnd}
	if o.ModeledFrontEnd && unroll > 0 {
		base.LoopBody = len(prog.Insts) / unroll
	}

	rng := sampleRNG(unrollSeed(seed, unroll))
	if o.RealSampleNoise {
		// Only the fully-faithful mode consumes the machine RNG (for
		// interrupt arrivals); seeding it otherwise is wasted work.
		m.Rand = rand.New(rand.NewSource(int64(rng.next())))
	}

	// Warm-up: all memory accesses made by the basic block are legal and
	// (with the single-page mapping) hit L1. Only the cache resident set
	// matters here, so the warm-up touches lines directly rather than
	// paying for a full pipeline simulation.
	m.WarmCaches(prog, steps)

	// Timed run.
	ctr := m.TimeGraph(g, base)
	res.Counters = ctr

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
	seed := blockSeed(b.Insts)

	sc := p.getScratch()
	defer p.pool.Put(sc)

	m := sc.machine(p.CPU, unrollSeed(seed, unroll))
	prog, err := m.PrepareUnrolled(sc.unrolled(b.Insts, unroll), len(b.Insts))
	if err != nil {
		return pipeline.Counters{}, err
	}

	var thePage *vm.PhysPage
	mapped := 0
	onFault := func(f *vm.Fault) bool {
		if !o.MapPages || !vm.ValidUserAddress(f.Addr) || mapped > o.MaxFaults {
			return false
		}
		m.AS.Map(f.Addr, p.pageFor(m, &thePage))
		mapped++
		return true
	}
	steps, err := m.ExecuteMonitored(prog, p.resetState(&sc.st), onFault)
	if err != nil {
		return pipeline.Counters{}, err
	}
	g := m.PrepareGraph(prog, steps)
	base := machine.Config{ModeledFrontEnd: o.ModeledFrontEnd}
	if o.ModeledFrontEnd {
		base.LoopBody = len(b.Insts)
	}
	m.TimeGraph(g, base) // warm-up
	return m.TimeGraph(g, base), nil
}

// entryFromResult converts a Result for persistence. The error is stored
// as text; its concrete type is not preserved across the cache.
func entryFromResult(r Result) profcache.Entry {
	e := profcache.Entry{
		Status:       int(r.Status),
		Throughput:   r.Throughput,
		UnrollHi:     r.UnrollHi,
		UnrollLo:     r.UnrollLo,
		PagesMapped:  r.PagesMapped,
		CleanSamples: r.CleanSamples,
		Counters:     r.Counters,
	}
	if r.Err != nil {
		e.ErrText = r.Err.Error()
	}
	return e
}

func resultFromEntry(e profcache.Entry) Result {
	r := Result{
		Status:       Status(e.Status),
		Throughput:   e.Throughput,
		UnrollHi:     e.UnrollHi,
		UnrollLo:     e.UnrollLo,
		PagesMapped:  e.PagesMapped,
		CleanSamples: e.CleanSamples,
		Counters:     e.Counters,
	}
	if e.ErrText != "" {
		r.Err = errors.New(e.ErrText)
	}
	return r
}
