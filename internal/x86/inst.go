package x86

import (
	"fmt"
	"strings"
)

// Inst is one decoded or assembled instruction. Args are in Intel order
// (destination first).
type Inst struct {
	Op   Op
	Args []Operand
}

// NewInst builds an instruction from an op and operands.
func NewInst(op Op, args ...Operand) Inst { return Inst{Op: op, Args: args} }

// Form resolves the encoding form for the instruction's operand shapes.
func (in *Inst) Form() (*Form, error) {
	for _, idx := range FormsOf(in.Op) {
		f := &Forms[idx]
		if f.Match(in.Args) {
			return f, nil
		}
	}
	return nil, fmt.Errorf("x86: no encoding for %s", in)
}

// MemArg returns the index of the memory operand, or -1 if none. x86
// instructions have at most one memory operand.
func (in *Inst) MemArg() int {
	for i, a := range in.Args {
		if a.Kind == KindMem {
			return i
		}
	}
	return -1
}

// ArgIO reports whether explicit operand k is read and/or written,
// based on the opcode's semantic class.
func (in *Inst) ArgIO(k int) (read, write bool) {
	info := in.Op.info()
	cls := info.class
	// Two-operand VEX forms (pure moves/broadcasts) behave like clsMov.
	if cls == clsVex3 && len(in.Args) < 3 {
		cls = clsMov
	}
	switch cls {
	case clsMov:
		if k == 0 {
			return false, true
		}
		return true, false
	case clsRMW:
		if in.Op == XCHG {
			return true, true
		}
		if in.Op == IMUL && len(in.Args) == 3 {
			// Three-operand imul writes (not reads) its destination.
			if k == 0 {
				return false, true
			}
			return true, false
		}
		if k == 0 {
			return true, true
		}
		return true, false
	case clsCmp, clsSrc, clsBranch:
		return true, false
	case clsUnary:
		return true, true
	case clsVex3:
		if k == 0 {
			return false, true
		}
		return true, false
	case clsFMA:
		if k == 0 {
			return true, true
		}
		return true, false
	}
	return false, false
}

// IsLoad reports whether the instruction reads memory.
func (in *Inst) IsLoad() bool {
	if m := in.MemArg(); m >= 0 {
		if in.Op == LEA {
			return false
		}
		r, _ := in.ArgIO(m)
		return r
	}
	return false
}

// IsStore reports whether the instruction writes memory.
func (in *Inst) IsStore() bool {
	if m := in.MemArg(); m >= 0 {
		if in.Op == LEA {
			return false
		}
		_, w := in.ArgIO(m)
		return w
	}
	return false
}

// Is256 reports whether the instruction operates on 256 bits: it names a
// YMM register or accesses 32 bytes of memory.
func (in *Inst) Is256() bool {
	for _, a := range in.Args {
		if a.Kind == KindReg && a.Reg.Class() == ClassYMM {
			return true
		}
		if a.Kind == KindMem && a.Mem.Size == 32 {
			return true
		}
	}
	return false
}

// Features returns the ISA extensions the instruction needs: its op's,
// plus those of the op's 256-bit forms when it is one.
func (in *Inst) Features() Feature {
	f := in.Op.Features()
	if in.Op < NumOps && opInfos[in.Op].feat256 != 0 && in.Is256() {
		f |= opInfos[in.Op].feat256
	}
	return f
}

// String renders the instruction in Intel syntax.
func (in Inst) String() string {
	if len(in.Args) == 0 {
		return in.Op.String()
	}
	parts := make([]string, len(in.Args))
	for i, a := range in.Args {
		parts[i] = a.String()
	}
	return in.Op.String() + " " + strings.Join(parts, ", ")
}
