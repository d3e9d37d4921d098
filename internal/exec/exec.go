package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"bhive/internal/vm"
	"bhive/internal/x86"
)

// MemAccess is one dynamic memory access.
type MemAccess struct {
	Addr  uint64 // virtual address
	Phys  uint64 // physical address after translation
	Size  uint8
	Write bool
}

// Step is the dynamic record of one executed instruction: what the timing
// model needs beyond the static instruction.
type Step struct {
	Inst  *x86.Inst
	Load  *MemAccess
	Store *MemAccess
	// Subnormal marks an FP instruction that consumed or produced a
	// denormal value that was not flushed by FTZ/DAZ.
	Subnormal bool
}

// DivideError is the #DE exception (division by zero or quotient
// overflow); a block raising it cannot be profiled.
type DivideError struct{}

func (DivideError) Error() string { return "exec: divide error (#DE)" }

// UnimplementedError reports an instruction the executor does not
// implement; a block containing it cannot be profiled.
type UnimplementedError struct {
	Op     x86.Op
	Vector bool // raised by the vector unit
}

func (e *UnimplementedError) Error() string {
	if e.Vector {
		return fmt.Sprintf("exec: unimplemented vector op %s", e.Op)
	}
	return fmt.Sprintf("exec: unimplemented op %s", e.Op)
}

// Runner executes instruction sequences against an address space.
type Runner struct {
	State *State
	AS    *vm.AddressSpace

	// Record enables trace collection into Trace.
	Record bool
	Trace  []Step

	// Acc is the arena backing the Load/Store records of traced steps, so
	// a run performs no per-access heap allocation. Run reserves enough
	// free capacity up front that appends never reallocate — entries stay
	// address-stable for the lifetime of the trace that points into them.
	// Callers recycling a runner's buffers must recycle Trace and Acc
	// together: a step and its accesses share one validity window.
	Acc []MemAccess

	// OnFault, when non-nil, is invoked for every page fault. Returning
	// true means the handler repaired the fault (e.g. mapped the page) and
	// the access is retried in place; returning false propagates the fault
	// as an error. Because execution is deterministic and mapping only adds
	// pages, continuing in place yields exactly the trace that the
	// restart-per-fault monitor protocol converges to — this is what lets
	// one functional pass discover and map every faulting page. The fault
	// it is handed is valid only during the call; a fault it refuses is
	// returned as a *vm.Fault of its own.
	OnFault func(f *vm.Fault) bool

	// fault is the fault handed to OnFault, so a repaired one allocates
	// nothing.
	fault vm.Fault
}

// NewRunner builds a runner over fresh architectural state.
func NewRunner(as *vm.AddressSpace) *Runner {
	return &Runner{State: &State{}, AS: as}
}

// Run executes insts in order. addrs, when non-nil, holds each
// instruction's virtual address plus a final entry for the end address
// (used for RIP-relative addressing).
func (r *Runner) Run(insts []x86.Inst, addrs []uint64) error {
	// Reserve arena headroom so newAccess never reallocates mid-run: at
	// most one load and one store per instruction. A prior Run's entries
	// are kept live by the steps pointing at the old backing array, so a
	// full arena is replaced, not grown in place.
	if free := cap(r.Acc) - len(r.Acc); free < 2*len(insts) {
		r.Acc = make([]MemAccess, 0, 2*len(insts))
	}
	for i := range insts {
		if addrs != nil {
			r.State.RIP = addrs[i+1] // RIP-relative is next-instruction based
		}
		step := Step{Inst: &insts[i]}
		if err := r.exec(&insts[i], &step); err != nil {
			return err
		}
		if r.Record {
			r.Trace = append(r.Trace, step)
		}
	}
	return nil
}

// ea computes the effective address of a memory operand.
func (r *Runner) ea(m x86.Mem) uint64 {
	var a uint64
	switch m.Base {
	case x86.RegNone:
	case x86.RIP:
		a = r.State.RIP
	default:
		a = r.State.ReadGPR(m.Base)
	}
	if m.Index != x86.RegNone {
		a += r.State.ReadGPR(m.Index) * uint64(m.Scale)
	}
	return a + uint64(int64(m.Disp))
}

func (r *Runner) loadBytes(addr uint64, buf []byte, step *Step) error {
	if err := r.access(addr, buf, false); err != nil {
		return err
	}
	_, phys, _ := r.AS.Translate(addr)
	step.Load = r.newAccess(MemAccess{Addr: addr, Phys: phys, Size: uint8(len(buf))})
	return nil
}

// access copies between buf and the memory at addr (vm.AddressSpace.Access),
// retrying in place after each fault OnFault repairs.
func (r *Runner) access(addr uint64, buf []byte, write bool) error {
	for {
		f, ok := r.AS.Access(addr, buf, write)
		if ok {
			return nil
		}
		r.fault = f
		if r.OnFault == nil || !r.OnFault(&r.fault) {
			return &vm.Fault{Addr: f.Addr, Write: f.Write}
		}
	}
}

// newAccess places an access record in the arena and returns its stable
// address. The fallback allocation is unreachable under Run's reservation
// (≤2 accesses per instruction) but keeps pointer stability unconditional.
func (r *Runner) newAccess(a MemAccess) *MemAccess {
	if len(r.Acc) < cap(r.Acc) {
		r.Acc = append(r.Acc, a)
		return &r.Acc[len(r.Acc)-1]
	}
	p := new(MemAccess)
	*p = a
	return p
}

func (r *Runner) storeBytes(addr uint64, buf []byte, step *Step) error {
	if err := r.access(addr, buf, true); err != nil {
		return err
	}
	_, phys, _ := r.AS.Translate(addr)
	step.Store = r.newAccess(MemAccess{Addr: addr, Phys: phys, Size: uint8(len(buf)), Write: true})
	return nil
}

func (r *Runner) loadInt(addr uint64, size int, step *Step) (uint64, error) {
	var buf [8]byte
	if err := r.loadBytes(addr, buf[:size], step); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func (r *Runner) storeInt(addr uint64, v uint64, size int, step *Step) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return r.storeBytes(addr, buf[:size], step)
}

// readIntArg reads operand k as an integer value (zero-extended for
// registers/memory, sign-extended immediates reinterpreted as unsigned).
func (r *Runner) readIntArg(in *x86.Inst, k int, step *Step) (uint64, error) {
	a := in.Args[k]
	switch a.Kind {
	case x86.KindReg:
		return r.State.ReadGPR(a.Reg), nil
	case x86.KindImm:
		return uint64(a.Imm), nil
	case x86.KindMem:
		return r.loadInt(r.ea(a.Mem), int(a.Mem.Size), step)
	}
	return 0, fmt.Errorf("exec: bad operand")
}

// writeIntArg writes v to operand k.
func (r *Runner) writeIntArg(in *x86.Inst, k int, v uint64, step *Step) error {
	a := in.Args[k]
	switch a.Kind {
	case x86.KindReg:
		r.State.WriteGPR(a.Reg, v)
		return nil
	case x86.KindMem:
		return r.storeInt(r.ea(a.Mem), v, int(a.Mem.Size), step)
	}
	return fmt.Errorf("exec: bad destination operand")
}

// intOpSize returns the operand width in bytes of the primary operand.
func intOpSize(in *x86.Inst, k int) int {
	a := in.Args[k]
	switch a.Kind {
	case x86.KindReg:
		return a.Reg.Size()
	case x86.KindMem:
		return int(a.Mem.Size)
	}
	return 8
}

func (r *Runner) exec(in *x86.Inst, step *Step) error {
	s := r.State
	op := in.Op
	if IsVector(op) {
		return r.execVec(in, step)
	}

	switch op {
	case x86.MOV:
		v, err := r.readIntArg(in, 1, step)
		if err != nil {
			return err
		}
		return r.writeIntArg(in, 0, v, step)

	case x86.MOVZX:
		v, err := r.readIntArg(in, 1, step)
		if err != nil {
			return err
		}
		return r.writeIntArg(in, 0, maskTo(v, intOpSize(in, 1)), step)

	case x86.MOVSX, x86.MOVSXD:
		v, err := r.readIntArg(in, 1, step)
		if err != nil {
			return err
		}
		sv := signExtend(v, intOpSize(in, 1))
		return r.writeIntArg(in, 0, uint64(sv), step)

	case x86.LEA:
		s.WriteGPR(in.Args[0].Reg, maskTo(r.ea(in.Args[1].Mem), in.Args[0].Reg.Size()))
		return nil

	case x86.PUSH:
		v, err := r.readIntArg(in, 0, step)
		if err != nil {
			return err
		}
		s.GPR[x86.RSP.Num()] -= 8
		return r.storeInt(s.GPR[x86.RSP.Num()], v, 8, step)

	case x86.POP:
		v, err := r.loadInt(s.GPR[x86.RSP.Num()], 8, step)
		if err != nil {
			return err
		}
		s.GPR[x86.RSP.Num()] += 8
		return r.writeIntArg(in, 0, v, step)

	case x86.XCHG:
		a, err := r.readIntArg(in, 0, step)
		if err != nil {
			return err
		}
		b, err := r.readIntArg(in, 1, step)
		if err != nil {
			return err
		}
		if err := r.writeIntArg(in, 0, b, step); err != nil {
			return err
		}
		return r.writeIntArg(in, 1, a, step)

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR,
		x86.CMP, x86.TEST:
		return r.execALU(in, step)

	case x86.INC, x86.DEC, x86.NEG, x86.NOT:
		return r.execUnary(in, step)

	case x86.BSWAP:
		v := s.ReadGPR(in.Args[0].Reg)
		size := in.Args[0].Reg.Size()
		if size == 4 {
			v = uint64(bits.ReverseBytes32(uint32(v)))
		} else {
			v = bits.ReverseBytes64(v)
		}
		s.WriteGPR(in.Args[0].Reg, v)
		return nil

	case x86.IMUL:
		return r.execIMul(in, step)
	case x86.MUL:
		return r.execWideMul(in, step)
	case x86.DIV, x86.IDIV:
		return r.execDiv(in, step)

	case x86.CDQ:
		s.WriteGPR(x86.EDX, uint64(uint32(int32(s.ReadGPR(x86.EAX))>>31)))
		return nil
	case x86.CQO:
		s.GPR[x86.RDX.Num()] = uint64(int64(s.GPR[x86.RAX.Num()]) >> 63)
		return nil

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		return r.execShift(in, step)

	case x86.POPCNT, x86.LZCNT, x86.TZCNT, x86.BSF, x86.BSR:
		return r.execBitScan(in, step)

	case x86.BT:
		v, err := r.readIntArg(in, 0, step)
		if err != nil {
			return err
		}
		idx, err := r.readIntArg(in, 1, step)
		if err != nil {
			return err
		}
		bitsN := uint64(intOpSize(in, 0)) * 8
		s.CF = v>>(idx%bitsN)&1 == 1
		return nil

	case x86.NOP, x86.VZEROUPPER:
		if op == x86.VZEROUPPER {
			for i := range s.Vec {
				for b := 16; b < 32; b++ {
					s.Vec[i][b] = 0
				}
			}
		}
		return nil
	}

	// Conditional moves and sets.
	if c := op.Cond(); c != x86.CondNone {
		switch {
		case op.IsCMov():
			if s.Cond(c) {
				v, err := r.readIntArg(in, 1, step)
				if err != nil {
					return err
				}
				return r.writeIntArg(in, 0, v, step)
			}
			// Even when the condition fails, a memory source is read.
			if in.Args[1].Kind == x86.KindMem {
				_, err := r.readIntArg(in, 1, step)
				return err
			}
			return nil
		case op.IsSetCC():
			v := uint64(0)
			if s.Cond(c) {
				v = 1
			}
			return r.writeIntArg(in, 0, v, step)
		}
	}

	if op.IsBranch() {
		// Basic blocks never contain branches; treat as a no-op marker.
		return nil
	}
	return &UnimplementedError{Op: op}
}

func (r *Runner) execALU(in *x86.Inst, step *Step) error {
	s := r.State
	size := intOpSize(in, 0)
	a, err := r.readIntArg(in, 0, step)
	if err != nil {
		return err
	}
	b, err := r.readIntArg(in, 1, step)
	if err != nil {
		return err
	}
	a, b = maskTo(a, size), maskTo(b, size)
	var res uint64
	write := true
	switch in.Op {
	case x86.ADD:
		res = a + b
		s.setAddFlags(a, b, res, size)
	case x86.ADC:
		c := uint64(0)
		if s.CF {
			c = 1
		}
		res = a + b + c
		s.setAddFlags(a, b+c, res, size)
	case x86.SUB:
		res = a - b
		s.setSubFlags(a, b, res, size)
	case x86.SBB:
		c := uint64(0)
		if s.CF {
			c = 1
		}
		res = a - b - c
		s.setSubFlags(a, b+c, res, size)
	case x86.CMP:
		res = a - b
		s.setSubFlags(a, b, res, size)
		write = false
	case x86.AND:
		res = a & b
		s.setLogicFlags(res, size)
	case x86.TEST:
		res = a & b
		s.setLogicFlags(res, size)
		write = false
	case x86.OR:
		res = a | b
		s.setLogicFlags(res, size)
	case x86.XOR:
		res = a ^ b
		s.setLogicFlags(res, size)
	}
	if !write {
		return nil
	}
	return r.writeIntArg(in, 0, maskTo(res, size), step)
}

func (r *Runner) execUnary(in *x86.Inst, step *Step) error {
	s := r.State
	size := intOpSize(in, 0)
	a, err := r.readIntArg(in, 0, step)
	if err != nil {
		return err
	}
	a = maskTo(a, size)
	var res uint64
	switch in.Op {
	case x86.INC:
		res = a + 1
		cf := s.CF // inc preserves CF
		s.setAddFlags(a, 1, res, size)
		s.CF = cf
	case x86.DEC:
		res = a - 1
		cf := s.CF
		s.setSubFlags(a, 1, res, size)
		s.CF = cf
	case x86.NEG:
		res = -a
		s.setSubFlags(0, a, res, size)
		s.CF = a != 0
	case x86.NOT:
		res = ^a // not touches no flags
	}
	return r.writeIntArg(in, 0, maskTo(res, size), step)
}

func (r *Runner) execIMul(in *x86.Inst, step *Step) error {
	s := r.State
	size := intOpSize(in, 0)
	var a, b uint64
	var err error
	if len(in.Args) == 3 {
		if a, err = r.readIntArg(in, 1, step); err != nil {
			return err
		}
		b = uint64(in.Args[2].Imm)
	} else {
		if a, err = r.readIntArg(in, 0, step); err != nil {
			return err
		}
		if b, err = r.readIntArg(in, 1, step); err != nil {
			return err
		}
	}
	sa, sb := signExtend(a, size), signExtend(b, size)
	res := uint64(sa * sb)
	hi, _ := bits.Mul64(uint64(sa), uint64(sb))
	s.CF = signExtend(res, size) != sa*sb || (size == 8 && hi != 0 && hi != ^uint64(0))
	s.OF = s.CF
	s.setZSP(res, size)
	return r.writeIntArg(in, 0, maskTo(res, size), step)
}

func (r *Runner) execWideMul(in *x86.Inst, step *Step) error {
	s := r.State
	size := intOpSize(in, 0)
	v, err := r.readIntArg(in, 0, step)
	if err != nil {
		return err
	}
	switch size {
	case 4:
		prod := s.ReadGPR(x86.EAX) * maskTo(v, 4)
		s.WriteGPR(x86.EAX, prod&0xFFFFFFFF)
		s.WriteGPR(x86.EDX, prod>>32)
		s.CF = prod>>32 != 0
	default:
		hi, lo := bits.Mul64(s.GPR[x86.RAX.Num()], v)
		s.GPR[x86.RAX.Num()] = lo
		s.GPR[x86.RDX.Num()] = hi
		s.CF = hi != 0
	}
	s.OF = s.CF
	return nil
}

func (r *Runner) execDiv(in *x86.Inst, step *Step) error {
	s := r.State
	size := intOpSize(in, 0)
	v, err := r.readIntArg(in, 0, step)
	if err != nil {
		return err
	}
	v = maskTo(v, size)
	if v == 0 {
		return DivideError{}
	}
	signed := in.Op == x86.IDIV
	switch size {
	case 1:
		dividend := s.ReadGPR(x86.AX)
		if signed {
			q := int64(int16(dividend)) / int64(int8(v))
			rem := int64(int16(dividend)) % int64(int8(v))
			if q > 127 || q < -128 {
				return DivideError{}
			}
			s.WriteGPR(x86.AL, uint64(q))
			s.WriteGPR(x86.AH, uint64(rem))
		} else {
			q := dividend / v
			if q > 0xFF {
				return DivideError{}
			}
			s.WriteGPR(x86.AL, q)
			s.WriteGPR(x86.AH, dividend%v)
		}
	case 4:
		dividend := s.ReadGPR(x86.EDX)<<32 | s.ReadGPR(x86.EAX)
		if signed {
			q := int64(dividend) / int64(int32(v))
			rem := int64(dividend) % int64(int32(v))
			if q > 0x7FFFFFFF || q < -0x80000000 {
				return DivideError{}
			}
			s.WriteGPR(x86.EAX, uint64(uint32(q)))
			s.WriteGPR(x86.EDX, uint64(uint32(rem)))
		} else {
			q := dividend / v
			if q > 0xFFFFFFFF {
				return DivideError{}
			}
			s.WriteGPR(x86.EAX, q)
			s.WriteGPR(x86.EDX, dividend%v)
		}
	default:
		hi, lo := s.GPR[x86.RDX.Num()], s.GPR[x86.RAX.Num()]
		if signed {
			negDividend := int64(hi) < 0
			if negDividend {
				lo = -lo
				hi = ^hi
				if lo == 0 {
					hi++
				}
			}
			dv := int64(v)
			negDiv := dv < 0
			uv := uint64(dv)
			if negDiv {
				uv = uint64(-dv)
			}
			if hi >= uv {
				return DivideError{}
			}
			q, rem := bits.Div64(hi, lo, uv)
			if negDividend != negDiv {
				if q > 1<<63 {
					return DivideError{}
				}
				q = -q
			} else if q >= 1<<63 {
				return DivideError{}
			}
			if negDividend {
				rem = -rem
			}
			s.GPR[x86.RAX.Num()] = q
			s.GPR[x86.RDX.Num()] = rem
		} else {
			if hi >= v {
				return DivideError{}
			}
			q, rem := bits.Div64(hi, lo, v)
			s.GPR[x86.RAX.Num()] = q
			s.GPR[x86.RDX.Num()] = rem
		}
	}
	return nil
}

func (r *Runner) execShift(in *x86.Inst, step *Step) error {
	s := r.State
	size := intOpSize(in, 0)
	a, err := r.readIntArg(in, 0, step)
	if err != nil {
		return err
	}
	a = maskTo(a, size)
	cnt, err := r.readIntArg(in, 1, step)
	if err != nil {
		return err
	}
	if size == 8 {
		cnt &= 63
	} else {
		cnt &= 31
	}
	if cnt == 0 {
		// Flags unchanged; destination rewritten with the same value (a
		// memory destination still performs its store).
		return r.writeIntArg(in, 0, a, step)
	}
	bitsN := uint(size) * 8
	var res uint64
	switch in.Op {
	case x86.SHL:
		res = a << cnt
		s.CF = cnt <= uint64(bitsN) && a>>(uint64(bitsN)-cnt)&1 == 1
		s.setZSP(res, size)
		s.OF = (res>>(bitsN-1)&1 == 1) != s.CF
	case x86.SHR:
		res = a >> cnt
		s.CF = a>>(cnt-1)&1 == 1
		s.setZSP(res, size)
		s.OF = a>>(bitsN-1)&1 == 1
	case x86.SAR:
		res = uint64(signExtend(a, size) >> cnt)
		s.CF = a>>(cnt-1)&1 == 1
		s.setZSP(res, size)
		s.OF = false
	case x86.ROL:
		k := cnt % uint64(bitsN)
		res = a<<k | a>>(uint64(bitsN)-k)
		s.CF = res&1 == 1
	case x86.ROR:
		k := cnt % uint64(bitsN)
		res = a>>k | a<<(uint64(bitsN)-k)
		s.CF = res>>(bitsN-1)&1 == 1
	}
	return r.writeIntArg(in, 0, maskTo(res, size), step)
}

func (r *Runner) execBitScan(in *x86.Inst, step *Step) error {
	s := r.State
	size := intOpSize(in, 1)
	v, err := r.readIntArg(in, 1, step)
	if err != nil {
		return err
	}
	v = maskTo(v, size)
	bitsN := size * 8
	var res uint64
	switch in.Op {
	case x86.POPCNT:
		res = uint64(bits.OnesCount64(v))
		s.ZF = v == 0
	case x86.LZCNT:
		res = uint64(bits.LeadingZeros64(v) - (64 - bitsN))
		s.CF = v == 0
		s.ZF = res == 0
	case x86.TZCNT:
		if v == 0 {
			res = uint64(bitsN)
		} else {
			res = uint64(bits.TrailingZeros64(v))
		}
		s.CF = v == 0
		s.ZF = res == 0
	case x86.BSF:
		if v == 0 {
			s.ZF = true
			return nil // destination undefined; leave unchanged
		}
		s.ZF = false
		res = uint64(bits.TrailingZeros64(v))
	case x86.BSR:
		if v == 0 {
			s.ZF = true
			return nil
		}
		s.ZF = false
		res = uint64(63 - bits.LeadingZeros64(v))
	}
	return r.writeIntArg(in, 0, res, step)
}
