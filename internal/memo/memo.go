// Package memo is the process-wide memoization layer for per-instruction
// derivations that the profiler, the analytical models, the static bounds,
// the linter and the classifier would otherwise re-compute for every
// dynamic instruction: machine-code encoding, the pipeline register-use
// sets, and the microarchitecture-specific µop descriptions.
//
// Two typed tables hold the results (DESIGN.md §16):
//
//   - Inst: one *InstInfo per instruction value — everything that does
//     not depend on the microarchitecture;
//   - For(cpu).Prepared: one *PreparedInst per (instruction, µarch) —
//     both µop descriptions, sharing the instruction's *InstInfo.
//
// Each entry is derived on the first miss and published exactly once: on a
// concurrent miss the first store wins and every caller receives that same
// pointer. Entries are immutable once published; callers must treat every
// field, slices included, as read-only (the pipeline copies µop specs
// before mutating latencies). A consumer resolves each instruction with one
// lookup and reads every derivation it needs from that entry.
package memo

import (
	"sync"
	"sync/atomic"

	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// maxArgs is the operand-count ceiling for memoizable instructions; x86
// instructions in this subset carry at most three operands.
const maxArgs = 4

// instKey is the memo identity of an instruction value, packed into words
// with no padding so the compiler-generated map hash covers it in one
// pass. Word 0 holds the opcode (bits 0–15), the operand count (16–23) and
// one byte of operand kind per operand (from bit 24); word 1+i holds
// operand i's payload: its register, its immediate, or its packed memory
// reference.
type instKey [1 + maxArgs]uint64

// keyOf builds the memo key. ok is false for instructions the key cannot
// represent exactly — more than maxArgs operands, or an operand carrying a
// field its kind does not use — which are derived directly and counted in
// Counters.Uncacheable.
func keyOf(in *x86.Inst) (k instKey, ok bool) {
	if len(in.Args) > maxArgs {
		return k, false
	}
	k[0] = uint64(in.Op) | uint64(len(in.Args))<<16
	for i := range in.Args {
		a := &in.Args[i]
		var (
			canon x86.Operand
			w     uint64
		)
		switch a.Kind {
		case x86.KindNone:
		case x86.KindReg:
			canon, w = x86.RegOp(a.Reg), uint64(a.Reg)
		case x86.KindImm:
			canon, w = x86.ImmOp(a.Imm), uint64(a.Imm)
		case x86.KindMem:
			m := a.Mem
			canon = x86.MemOp(m)
			w = uint64(m.Base) | uint64(m.Index)<<8 | uint64(m.Scale)<<16 |
				uint64(m.Size)<<24 | uint64(uint32(m.Disp))<<32
		default:
			return k, false
		}
		if *a != canon {
			return k, false
		}
		k[0] |= uint64(a.Kind) << (24 + 8*i)
		k[1+i] = w
	}
	return k, true
}

// shard picks the key's table shard from a multiplicative mix of all its
// words (the top bits of the product are the well-mixed ones).
func (k *instKey) shard() int {
	const mix = 0x9E3779B97F4A7C15
	h := k[0] * mix
	for _, w := range k[1:] {
		h = (h ^ w) * mix
	}
	return int(h >> (64 - shardBits))
}

const (
	shardBits = 6
	numShards = 1 << shardBits
)

// table maps instruction keys to published entries: numShards maps, each
// behind its own RWMutex, so hits on different shards never contend and a
// hit takes only a read lock.
type table[V any] struct {
	shards  [numShards]shard[V]
	entries atomic.Int64
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[instKey]*V
}

// load returns the published entry for k, or nil.
func (t *table[V]) load(k *instKey) *V {
	s := &t.shards[k.shard()]
	s.mu.RLock()
	v := s.m[*k]
	s.mu.RUnlock()
	return v
}

// publish stores v under k unless a concurrent miss published first, and
// returns the entry every caller must use.
func (t *table[V]) publish(k *instKey, v *V) *V {
	misses.Add(1)
	s := &t.shards[k.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.m[*k]; old != nil {
		return old
	}
	if s.m == nil {
		s.m = make(map[instKey]*V)
	}
	s.m[*k] = v
	t.entries.Add(1)
	return v
}

// InstInfo is the per-instruction memo entry: every derivation that
// depends on the instruction value alone.
type InstInfo struct {
	// Raw is the encoding (x86.Encode); EncErr its failure.
	Raw    []byte
	EncErr error
	// LCP marks encodings with a length-changing prefix (0x66 shrinking an
	// immediate), which stall the modeled predecoder.
	LCP bool
	// Addr, Data and Writes are the register-use sets on the pipeline
	// register ids: 0–15 GPRs by 64-bit base, 16–31 vector registers by
	// YMM base, 32 (RegFlags) the status flags.
	Addr, Data, Writes []uint8
}

// PreparedInst is the per-(instruction, µarch) memo entry: the
// instruction's InstInfo plus both µop descriptions on one
// microarchitecture.
type PreparedInst struct {
	*InstInfo
	// Desc is cpu.Describe (with the rename-time zero-idiom and
	// move-elimination tricks); DescErr its failure.
	Desc    uarch.Desc
	DescErr error
	// RawDesc is cpu.DescribeRaw (without them); RawDescErr its failure.
	RawDesc    uarch.Desc
	RawDescErr error
	// Err is the first failure of preparing the instruction for execution:
	// EncErr, else DescErr.
	Err error
}

var (
	insts table[InstInfo]

	archMu sync.Mutex
	archs  = map[string]*Arch{}

	misses, uncacheable atomic.Int64
)

// Inst returns the per-instruction entry for in.
func Inst(in *x86.Inst) *InstInfo {
	k, ok := keyOf(in)
	if !ok {
		uncacheable.Add(1)
		return instDirect(in)
	}
	return instOf(&k, in)
}

func instOf(k *instKey, in *x86.Inst) *InstInfo {
	if e := insts.load(k); e != nil {
		return e
	}
	return insts.publish(k, instDirect(in))
}

func instDirect(in *x86.Inst) *InstInfo {
	e := new(InstInfo)
	e.Raw, e.EncErr = x86.Encode(*in)
	e.LCP = x86.LengthChangingPrefix(e.Raw)
	e.Addr, e.Data, e.Writes = regSets(in)
	return e
}

// Arch is the per-(instruction, µarch) table of one microarchitecture.
type Arch struct {
	cpu   *uarch.CPU
	preps table[PreparedInst]
}

// For returns the table of cpu's microarchitecture. Tables are keyed by
// CPU name — uarch.CPU.Perturbed renames its result for exactly this
// reason — and the first CPU registered under a name derives every entry.
// Resolve the table once per block (or once per model) and call Prepared
// per instruction.
func For(cpu *uarch.CPU) *Arch {
	archMu.Lock()
	defer archMu.Unlock()
	a := archs[cpu.Name]
	if a == nil {
		a = &Arch{cpu: cpu}
		archs[cpu.Name] = a
	}
	return a
}

// Prepared returns the entry for in on this microarchitecture.
func (a *Arch) Prepared(in *x86.Inst) *PreparedInst {
	k, ok := keyOf(in)
	if !ok {
		uncacheable.Add(1)
		return a.prepare(in, instDirect(in))
	}
	if p := a.preps.load(&k); p != nil {
		return p
	}
	return a.preps.publish(&k, a.prepare(in, instOf(&k, in)))
}

func (a *Arch) prepare(in *x86.Inst, info *InstInfo) *PreparedInst {
	p := &PreparedInst{InstInfo: info}
	p.Desc, p.DescErr = a.cpu.Describe(in)
	if p.Desc.ZeroIdiom || p.Desc.EliminatedMove {
		p.RawDesc, p.RawDescErr = a.cpu.DescribeRaw(in)
	} else {
		// Describe differs from DescribeRaw only by those two rename-time
		// eliminations; without them the two views are one derivation and
		// share its µop slice.
		p.RawDesc, p.RawDescErr = p.Desc, p.DescErr
	}
	p.Err = info.EncErr
	if p.Err == nil {
		p.Err = p.DescErr
	}
	return p
}

// Counters is a snapshot of the memo's counters. Only slow paths (misses
// and uncacheable lookups) update them, so hits stay uncontended.
type Counters struct {
	// Insts and Prepared are the entries published in the per-instruction
	// table and, summed over microarchitectures, the per-(instruction,
	// µarch) tables.
	Insts, Prepared int64
	// Misses counts derivations run for a table, including those that lost
	// the publish race to a concurrent miss on the same key.
	Misses int64
	// Uncacheable counts lookups of instructions with no memo key, derived
	// directly on every call.
	Uncacheable int64
}

// Stats returns the current counters.
func Stats() Counters {
	s := Counters{
		Insts:       insts.entries.Load(),
		Misses:      misses.Load(),
		Uncacheable: uncacheable.Load(),
	}
	archMu.Lock()
	defer archMu.Unlock()
	for _, a := range archs {
		s.Prepared += a.preps.entries.Load()
	}
	return s
}

// RegFlags is the pipeline's status-flags register id (kept in sync with
// pipeline.RegFlags by a test).
const RegFlags = 32

// regSets maps an instruction's register usage onto the pipeline register
// ids.
func regSets(in *x86.Inst) (addr, data, writes []uint8) {
	id := func(r x86.Reg) (uint8, bool) {
		switch b := r.Base64(); b.Class() {
		case x86.ClassGP64:
			return uint8(b.Num()), true
		case x86.ClassYMM:
			return uint8(16 + b.Num()), true
		}
		return 0, false
	}
	for k, a := range in.Args {
		switch a.Kind {
		case x86.KindReg:
			r, w := in.ArgIO(k)
			// Sub-register writes merge, hence also read (RegReads models
			// this); replicate that rule here.
			merge := w && (a.Reg.Class() == x86.ClassGP8 || a.Reg.Class() == x86.ClassGP16)
			if r || merge {
				if n, ok := id(a.Reg); ok {
					data = append(data, n)
				}
			}
			if w {
				if n, ok := id(a.Reg); ok {
					writes = append(writes, n)
				}
			}
		case x86.KindMem:
			if n, ok := id(a.Mem.Base); ok {
				addr = append(addr, n)
			}
			if n, ok := id(a.Mem.Index); ok {
				addr = append(addr, n)
			}
		}
	}
	for _, r := range in.Op.ImplicitReads() {
		if n, ok := id(r); ok {
			data = append(data, n)
		}
	}
	for _, r := range in.Op.ImplicitWrites() {
		if n, ok := id(r); ok {
			writes = append(writes, n)
		}
	}
	if in.Op.ReadsFlags() {
		data = append(data, RegFlags)
	}
	if in.Op.WritesFlags() {
		writes = append(writes, RegFlags)
	}
	return addr, data, writes
}
