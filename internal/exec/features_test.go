package exec

import (
	"testing"

	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// The opcode-range expressions the opcode-table facts replaced. The Op
// enum's order is no contract anywhere else; these pin that the table
// facts agree with what the ranges used to say.

func oldIsVex(op x86.Op) bool { return op >= x86.VMOVSS && op <= x86.VFNMADD231PD }

func oldIsVector(op x86.Op) bool {
	return oldIsVex(op) || (op >= x86.MOVSS && op <= x86.PMOVMSKB)
}

func oldIsFMA(op x86.Op) bool { return op >= x86.VFMADD132PS && op <= x86.VFNMADD231PD }

func oldIsCMov(op x86.Op) bool { return op >= x86.CMOVE && op <= x86.CMOVNS }

func oldIsSetCC(op x86.Op) bool { return op >= x86.SETE && op <= x86.SETNS }

var oldAlignedMoveOps = map[x86.Op]bool{
	x86.MOVAPS: true, x86.MOVAPD: true, x86.MOVDQA: true,
	x86.VMOVAPS: true, x86.VMOVAPD: true, x86.VMOVDQA: true,
}

func oldIs256(in *x86.Inst) bool {
	for _, a := range in.Args {
		if a.Kind == x86.KindReg && a.Reg.Class() == x86.ClassYMM {
			return true
		}
		if a.Kind == x86.KindMem && a.Mem.Size == 32 {
			return true
		}
	}
	return false
}

// oldHasAVX2FMA is the pair of capability bools each µarch carried.
var oldHasAVX2FMA = map[string]bool{"ivybridge": false, "haswell": true, "skylake": true, "icelake": true}

func oldUnsupported(cpu string, in *x86.Inst) bool {
	op := in.Op
	if !oldHasAVX2FMA[cpu] && op >= x86.VFMADD132PS && op <= x86.VFNMADD231PD {
		return true
	}
	if !oldHasAVX2FMA[cpu] {
		if op >= x86.VPBROADCASTB && op <= x86.VINSERTI128 {
			return true
		}
		if op >= x86.VPXOR && op <= x86.VPMOVMSKB && oldIs256(in) {
			return true
		}
	}
	return false
}

// TestOpFactsMatchRanges: over every Op, the opcode-table predicates
// equal the range expressions they replaced.
func TestOpFactsMatchRanges(t *testing.T) {
	for op := x86.Op(0); op < x86.NumOps; op++ {
		for _, c := range []struct {
			name     string
			got, old bool
		}{
			{"IsVex", op.IsVex(), oldIsVex(op)},
			{"IsVector", IsVector(op), oldIsVector(op)},
			{"FMA", op.Features()&x86.FeatFMA != 0, oldIsFMA(op)},
			{"IsCMov", op.IsCMov(), oldIsCMov(op)},
			{"IsSetCC", op.IsSetCC(), oldIsSetCC(op)},
			{"IsAlignedMove", op.IsAlignedMove(), oldAlignedMoveOps[op]},
		} {
			if c.got != c.old {
				t.Errorf("%s.%s = %v, the range expression says %v", op, c.name, c.got, c.old)
			}
		}
	}
}

// formInst materializes an instance of form f: every operand slot a
// register where the pattern allows one, except that withMem puts a
// memory operand in the first slot that allows both. ok is false when
// withMem asks for a memory variant the form does not have.
func formInst(f *x86.Form, withMem bool) (in x86.Inst, ok bool) {
	in.Op = f.Op
	memDone := !withMem
	for _, p := range f.Args {
		var o x86.Operand
		switch {
		case p == x86.PatCL:
			o = x86.RegOp(x86.CL)
		case p.AllowsReg() && (memDone || !p.AllowsMem()):
			o = x86.RegOp(patReg(p))
		case p.AllowsMem():
			if p.AllowsReg() {
				memDone = true
			}
			o = x86.MemOp(x86.Mem{Base: x86.RBX, Size: uint8(p.MemSize())})
		default:
			o = x86.ImmOp(1)
		}
		in.Args = append(in.Args, o)
	}
	return in, memDone
}

// patReg picks a register of the class pattern p accepts.
func patReg(p x86.ArgPat) x86.Reg {
	switch p {
	case x86.PatR8, x86.PatRM8:
		return x86.GPReg(3, 1)
	case x86.PatR16, x86.PatRM16:
		return x86.GPReg(3, 2)
	case x86.PatR32, x86.PatRM32:
		return x86.GPReg(3, 4)
	case x86.PatR64, x86.PatRM64:
		return x86.GPReg(3, 8)
	case x86.PatYMM, x86.PatYM256:
		return x86.Y0 + 3
	}
	return x86.X0 + 3
}

// TestFormFactsMatchRanges: over every encoding form, in its register and
// its memory shape, on every µarch, the 256-bit predicate equals the one
// exec and uarch each carried, and the feature-set test rejects exactly
// the instructions the range checks rejected.
func TestFormFactsMatchRanges(t *testing.T) {
	cpus := uarch.Extended()
	n := 0
	for i := range x86.Forms {
		f := &x86.Forms[i]
		for _, withMem := range []bool{false, true} {
			in, ok := formInst(f, withMem)
			if !ok {
				continue
			}
			if _, err := x86.Encode(in); err != nil {
				t.Fatalf("form %d (%s): materialized %s does not encode: %v", i, f.Op, in, err)
			}
			n++
			if got, old := in.Is256(), oldIs256(&in); got != old {
				t.Errorf("%s: Is256 = %v, old predicate %v", in, got, old)
			}
			for _, cpu := range cpus {
				_, err := cpu.Describe(&in)
				_, unsup := err.(*uarch.UnsupportedError)
				if old := oldUnsupported(cpu.Name, &in); unsup != old {
					t.Errorf("%s on %s: unsupported = %v, range checks say %v", in, cpu.Name, unsup, old)
				}
			}
		}
	}
	if n < len(x86.Forms) {
		t.Fatalf("materialized %d instances for %d forms", n, len(x86.Forms))
	}
}
