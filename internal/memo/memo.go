// Package memo is the process-wide memoization layer for per-instruction
// derivations that the profiler, the analytical models, the static bounds,
// the linter and the classifier would otherwise re-compute for every
// dynamic instruction: machine-code encoding, the pipeline register-use
// sets, and the microarchitecture-specific µop descriptions.
//
// Each distinct instruction value gets a dense ID once (Intern, the one
// hashed lookup), and every entry is then found by that id (DESIGN.md §16):
//
//   - Inst: one *InstInfo per instruction value — everything that does
//     not depend on the microarchitecture — published when the
//     instruction is interned;
//   - For(cpu).At(id): one *PreparedInst per (instruction, µarch), held
//     in fixed-size chunks indexed by id, with no lock and no hash on a
//     hit. An entry is 32 bytes: the instruction's *InstInfo, a *Shape
//     (both µop descriptions and their failures) and the entry's first
//     failure. Each Arch interns error-free shapes by content on its miss
//     path, so the instructions whose descriptions are equal on one µarch
//     — a few dozen shapes cover a generated corpus — share one Shape.
//
// Prepared and Resolve are Intern followed by At. Each entry is derived
// on the first miss and published exactly once: on a concurrent miss the
// first store wins and every caller receives that same pointer. Entries
// and shapes are immutable once published; callers must treat every
// field, slices included, as read-only (the pipeline copies µop specs
// before mutating latencies). Copying an entry does not copy its shape:
// a caller that edits a description copies the Shape first. A consumer
// resolves each instruction with one lookup and reads every derivation it
// needs from that entry.
//
// Entries are not stored by value in the chunks: the bytes are in the
// descriptions, which shapes share, so a value slot would save only the
// 8-byte slot pointer and would need a second publication protocol.
package memo

import (
	"encoding/binary"
	"slices"
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
// field its kind does not use — which Intern looks up in a side map and
// counts in Counters.Uncacheable.
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

// shard picks the key's shard of the id map from a multiplicative mix of
// all its words (the top bits of the product are the well-mixed ones).
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

// ID is an instruction's dense memo id. Intern hands out 0, 1, 2, … in
// order of first sight, one per distinct instruction value, and an id
// never changes for the life of the process.
type ID uint32

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
)

// chunk is one fixed-size block of id-indexed slots.
type chunk[T any] [chunkSize]atomic.Pointer[T]

// chunks is an id-indexed table of published pointers: a directory of
// chunks. A reader loads the directory atomically and indexes it, with no
// lock and no hash. The directory grows copy-on-write under mu, and a
// chunk never moves once published, so growth copies no entry and a
// slot's address is stable.
type chunks[T any] struct {
	dir atomic.Pointer[[]*chunk[T]]
	mu  sync.Mutex
}

// load returns the pointer published at id, or nil.
func (c *chunks[T]) load(id ID) *T {
	if d := c.dir.Load(); d != nil && int(id>>chunkBits) < len(*d) {
		return (*d)[id>>chunkBits][id&(chunkSize-1)].Load()
	}
	return nil
}

// slot returns id's slot, growing the directory to cover it.
func (c *chunks[T]) slot(id ID) *atomic.Pointer[T] {
	i := int(id >> chunkBits)
	d := c.dir.Load()
	if d == nil || i >= len(*d) {
		d = c.grow(i)
	}
	return &(*d)[i][id&(chunkSize-1)]
}

// grow publishes a directory covering chunk i: the old chunks, then new
// empty ones.
func (c *chunks[T]) grow(i int) *[]*chunk[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var old []*chunk[T]
	if d := c.dir.Load(); d != nil {
		if i < len(*d) {
			return d
		}
		old = *d
	}
	grown := make([]*chunk[T], i+1)
	copy(grown, old)
	for j := len(old); j <= i; j++ {
		grown[j] = new(chunk[T])
	}
	c.dir.Store(&grown)
	return &grown
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

// Shape is an instruction's pair of µop descriptions on one
// microarchitecture. An Arch interns error-free shapes by content, so
// every instruction whose descriptions are equal on that µarch points at
// one Shape; a shape carrying an error belongs to its one entry. Shapes
// are shared and immutable: a caller that wants to change a description
// copies the Shape (and the µop slice) first.
type Shape struct {
	// Desc is cpu.Describe (with the rename-time zero-idiom and
	// move-elimination tricks); DescErr its failure.
	Desc    uarch.Desc
	DescErr error
	// RawDesc is cpu.DescribeRaw (without them); RawDescErr its failure.
	RawDesc    uarch.Desc
	RawDescErr error
}

// PreparedInst is the per-(instruction, µarch) memo entry: the
// instruction's InstInfo and its µop descriptions on one
// microarchitecture, 32 bytes in all.
type PreparedInst struct {
	*InstInfo
	*Shape
	// Err is the first failure of preparing the instruction for execution:
	// EncErr, else DescErr.
	Err error
}

// instRec is what Intern publishes for an id: the instruction's entry and
// a copy of the instruction, from which each µarch derives its entry.
type instRec struct {
	info InstInfo
	in   x86.Inst
}

var (
	// interned maps instruction keys to ids: numShards maps, each behind
	// its own RWMutex, so interning on different shards never contends
	// and a hit takes only a read lock.
	interned [numShards]struct {
		mu sync.RWMutex
		m  map[instKey]ID
	}
	// odd maps the instructions keyOf cannot represent to ids, keyed on
	// every field (oddKey).
	odd struct {
		mu sync.Mutex
		m  map[string]ID
	}
	// recs holds each id's record; nextID is the next id to hand out.
	recs   chunks[instRec]
	nextID atomic.Uint32

	archMu sync.Mutex
	archs  = map[string]*Arch{}

	misses, uncacheable atomic.Int64
)

// Intern returns in's id, deriving and publishing its InstInfo on first
// sight. It is the memo's one hashed lookup: every per-µarch lookup after
// it is an index (Arch.At). An instruction keyOf cannot represent gets an
// id too, from a side map, and each such call counts in
// Counters.Uncacheable.
func Intern(in *x86.Inst) ID {
	k, ok := keyOf(in)
	if !ok {
		uncacheable.Add(1)
		return internOdd(in)
	}
	s := &interned[k.shard()]
	s.mu.RLock()
	id, hit := s.m[k]
	s.mu.RUnlock()
	if hit {
		return id
	}
	rec := newRec(in)
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, hit := s.m[k]; hit {
		return id
	}
	if s.m == nil {
		s.m = make(map[instKey]ID)
	}
	id = publishRec(rec)
	s.m[k] = id
	return id
}

// internOdd is Intern for an instruction with no key.
func internOdd(in *x86.Inst) ID {
	k := oddKey(in)
	odd.mu.Lock()
	defer odd.mu.Unlock()
	if id, hit := odd.m[k]; hit {
		return id
	}
	if odd.m == nil {
		odd.m = make(map[string]ID)
	}
	id := publishRec(newRec(in))
	odd.m[k] = id
	return id
}

// oddKey packs every field of in, so two instructions share it only if
// they are equal.
func oddKey(in *x86.Inst) string {
	k := binary.LittleEndian.AppendUint16(nil, uint16(in.Op))
	for _, a := range in.Args {
		m := a.Mem
		k = append(k, byte(a.Kind), byte(a.Reg), byte(m.Base), byte(m.Index), m.Scale, m.Size)
		k = binary.LittleEndian.AppendUint64(k, uint64(a.Imm))
		k = binary.LittleEndian.AppendUint32(k, uint32(m.Disp))
	}
	return string(k)
}

// newRec derives the record of in.
func newRec(in *x86.Inst) *instRec {
	misses.Add(1)
	r := &instRec{in: x86.Inst{Op: in.Op, Args: slices.Clone(in.Args)}}
	e := &r.info
	e.Raw, e.EncErr = x86.Encode(*in)
	e.LCP = x86.LengthChangingPrefix(e.Raw)
	e.Addr, e.Data, e.Writes = regSets(in)
	return r
}

// publishRec gives rec the next id and stores it. The caller holds the
// lock of the map that hands the id out, so no reader learns the id
// before its record is stored.
func publishRec(rec *instRec) ID {
	id := ID(nextID.Add(1) - 1)
	recs.slot(id).Store(rec)
	return id
}

// InternBlock appends the id of each of b's instructions to dst, in block
// order, and returns the extended slice.
func InternBlock(dst []ID, b *x86.Block) []ID {
	for i := range b.Insts {
		dst = append(dst, Intern(&b.Insts[i]))
	}
	return dst
}

// Inst returns the per-instruction entry for in.
func Inst(in *x86.Inst) *InstInfo {
	return &recs.load(Intern(in)).info
}

// Arch is the per-(instruction, µarch) table of one microarchitecture,
// indexed by id.
type Arch struct {
	cpu     *uarch.CPU
	preps   chunks[PreparedInst]
	entries atomic.Int64

	// shapes maps the content key (shapeKey) of each error-free shape
	// published on this µarch to that shape.
	shapeMu sync.Mutex
	shapes  map[string]*Shape
}

// For returns the table of cpu's microarchitecture. Tables are keyed by
// CPU name — uarch.CPU.Perturbed renames its result for exactly this
// reason — and the first CPU registered under a name derives every entry.
// Resolve the table once per block (or once per model) and look entries
// up by id.
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

// At returns the entry of the instruction with the given id on this
// microarchitecture; the id must come from Intern. A hit is an index: no
// lock and no hash.
func (a *Arch) At(id ID) *PreparedInst {
	if p := a.preps.load(id); p != nil {
		return p
	}
	return a.derive(id)
}

// derive is At's miss path: it derives the entry from id's record and
// publishes it with a compare-and-swap, so on a concurrent miss the first
// store wins and every caller returns that pointer.
func (a *Arch) derive(id ID) *PreparedInst {
	misses.Add(1)
	r := recs.load(id)
	p := a.prepare(&r.in, &r.info)
	slot := a.preps.slot(id)
	if !slot.CompareAndSwap(nil, p) {
		return slot.Load()
	}
	a.entries.Add(1)
	return p
}

// Prepared returns the entry for in on this microarchitecture.
func (a *Arch) Prepared(in *x86.Inst) *PreparedInst {
	return a.At(Intern(in))
}

// Resolve appends the entry of each of b's instructions on this
// microarchitecture to dst, in block order, and returns the extended
// slice. It does not stop at a failed entry: each caller applies its own
// error rule to the entries.
func (a *Arch) Resolve(dst []*PreparedInst, b *x86.Block) []*PreparedInst {
	for i := range b.Insts {
		dst = append(dst, a.Prepared(&b.Insts[i]))
	}
	return dst
}

// ResolveIDs is Resolve for a block interned with InternBlock: it appends
// the entry of each id to dst, in order.
func (a *Arch) ResolveIDs(dst []*PreparedInst, ids []ID) []*PreparedInst {
	for _, id := range ids {
		dst = append(dst, a.At(id))
	}
	return dst
}

// prepare derives the entry of in on this microarchitecture. The shape is
// built on the stack and heap-allocated only if it carries an error or
// this µarch has not published its content yet.
func (a *Arch) prepare(in *x86.Inst, info *InstInfo) *PreparedInst {
	var sh Shape
	sh.Desc, sh.DescErr = a.cpu.Describe(in)
	if sh.Desc.ZeroIdiom || sh.Desc.EliminatedMove {
		sh.RawDesc, sh.RawDescErr = a.cpu.DescribeRaw(in)
	} else {
		// Describe differs from DescribeRaw only by those two rename-time
		// eliminations; without them the two views are one derivation and
		// share its µop slice.
		sh.RawDesc, sh.RawDescErr = sh.Desc, sh.DescErr
	}
	p := &PreparedInst{InstInfo: info, Err: info.EncErr}
	if sh.DescErr != nil || sh.RawDescErr != nil {
		p.Shape = new(Shape)
		*p.Shape = sh
	} else {
		p.Shape = a.intern(&sh)
	}
	if p.Err == nil {
		p.Err = p.DescErr
	}
	return p
}

// intern returns the published shape equal to sh, publishing a heap copy
// of sh if there is none.
func (a *Arch) intern(sh *Shape) *Shape {
	var buf [128]byte
	k := shapeKey(buf[:0], sh)
	a.shapeMu.Lock()
	defer a.shapeMu.Unlock()
	if s, ok := a.shapes[string(k)]; ok {
		return s
	}
	if a.shapes == nil {
		a.shapes = make(map[string]*Shape)
	}
	s := new(Shape)
	*s = *sh
	a.shapes[string(k)] = s
	return s
}

// shapeKey appends the content key of an error-free shape to dst: two
// shapes get one key only if they are reflect.DeepEqual, so a nil µop
// slice and an empty one differ. (Whether RawDesc shares Desc's µop
// slice follows from Desc's flags, as prepare builds it.)
func shapeKey(dst []byte, sh *Shape) []byte {
	return descKey(descKey(dst, &sh.Desc), &sh.RawDesc)
}

// descKey appends the content of d to dst.
func descKey(dst []byte, d *uarch.Desc) []byte {
	dst = append(dst, flag(d.Uops == nil), flag(d.ZeroIdiom), flag(d.EliminatedMove), flag(d.FP), flag(d.Generic))
	dst = binary.AppendVarint(dst, int64(d.FusedUops))
	dst = binary.AppendUvarint(dst, uint64(len(d.Uops)))
	for _, u := range d.Uops {
		dst = append(dst, byte(u.Class), byte(u.Ports), byte(u.Ports>>8), u.Lat, u.Occupancy)
	}
	return dst
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Counters is a snapshot of the memo's counters. Only slow paths (misses
// and uncacheable lookups) update them, so hits stay uncontended.
type Counters struct {
	// Insts is the number of ids handed out, one per interned
	// instruction; Prepared the per-(instruction, µarch) entries
	// published, summed over microarchitectures.
	Insts, Prepared int64
	// Shapes is the number of shared shapes published, summed over
	// microarchitectures: Prepared/Shapes is roughly how many entries
	// share each one (entries whose shape carries an error share none).
	Shapes int64
	// Misses counts derivations run for a table, including those that lost
	// the publish race to a concurrent miss on the same instruction.
	Misses int64
	// Uncacheable counts lookups of instructions with no memo key, which
	// take the side map's exact, slower path.
	Uncacheable int64
}

// Stats returns the current counters.
func Stats() Counters {
	s := Counters{
		Insts:       int64(nextID.Load()),
		Misses:      misses.Load(),
		Uncacheable: uncacheable.Load(),
	}
	archMu.Lock()
	defer archMu.Unlock()
	for _, a := range archs {
		s.Prepared += a.entries.Load()
		a.shapeMu.Lock()
		s.Shapes += int64(len(a.shapes))
		a.shapeMu.Unlock()
	}
	return s
}

// RegFlags is the pipeline's status-flags register id (kept in sync with
// pipeline.RegFlags by a test).
const RegFlags = 32

// regSets maps an instruction's register usage onto the pipeline register
// ids. It is the one reading of register I/O: every consumer (simulator,
// models, bounds, blocklint's def-use facts) takes these sets. Addr holds
// the address registers in operand order; Data the explicit reads, then
// the implicit ones, then the flags; Writes likewise.
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
			// Writes to 8/16-bit sub-registers merge into the old value,
			// so they also read; 32-bit writes zero-extend and do not.
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
