package uarch

import (
	"fmt"

	"bhive/internal/x86"
)

// UnsupportedError reports an instruction the microarchitecture cannot
// execute (e.g. AVX2 on Ivy Bridge). Blocks containing such instructions
// are excluded from that microarchitecture's validation, as in the paper.
type UnsupportedError struct {
	CPU string
	Op  x86.Op
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("uarch: %s does not support %s", e.CPU, e.Op)
}

// Describe maps an instruction to its micro-ops on this CPU.
func (c *CPU) Describe(in *x86.Inst) (Desc, error) {
	return c.describe(in, true)
}

// DescribeRaw is Describe without the rename-time optimizations (zero-idiom
// elimination and move elimination). Models that do not know about those
// proprietary fast paths — llvm-mca and OSACA in the paper's evaluation —
// see instructions this way.
func (c *CPU) DescribeRaw(in *x86.Inst) (Desc, error) {
	return c.describe(in, false)
}

func (c *CPU) describe(in *x86.Inst, renameTricks bool) (Desc, error) {
	if err := c.checkSupported(in); err != nil {
		return Desc{}, err
	}

	if renameTricks && isZeroIdiom(in) {
		return Desc{FusedUops: 1, ZeroIdiom: true}, nil
	}
	if renameTricks && c.MoveElimination && isEliminableMove(in) {
		return Desc{FusedUops: 1, EliminatedMove: true}, nil
	}

	compute, fp, generic := c.computeUops(in)
	var uops []Uop
	if in.IsLoad() {
		uops = append(uops, Uop{Class: ClassLoad, Ports: c.LoadPorts, Lat: uint8(c.L1DLatency)})
	}
	uops = append(uops, compute...)
	if in.IsStore() {
		uops = append(uops,
			Uop{Class: ClassStoreAddr, Ports: c.StoreAddrPorts, Lat: 1},
			Uop{Class: ClassStoreData, Ports: c.StoreDataPorts, Lat: 1})
	}

	fused := len(compute)
	if in.IsLoad() && fused == 0 {
		fused = 1 // pure load
	}
	if in.IsStore() {
		fused++ // store-address and store-data micro-fuse
	}
	if fused == 0 {
		fused = 1 // nop-like: occupies a rename slot only
	}
	return Desc{Uops: uops, FusedUops: fused, FP: fp, Generic: generic}, nil
}

// checkSupported rejects instructions that need an ISA extension the core
// lacks.
func (c *CPU) checkSupported(in *x86.Inst) error {
	if in.Features()&^c.Features != 0 {
		return &UnsupportedError{CPU: c.Name, Op: in.Op}
	}
	return nil
}

// isZeroIdiom recognizes the dependency-breaking zeroing idioms that the
// renamer executes without any micro-op: xor/sub of a register with itself
// and the vector equivalents.
func isZeroIdiom(in *x86.Inst) bool {
	sameRegs := func(a, b x86.Operand) bool {
		return a.Kind == x86.KindReg && b.Kind == x86.KindReg && a.Reg == b.Reg
	}
	switch in.Op {
	case x86.XOR, x86.SUB:
		return len(in.Args) == 2 && sameRegs(in.Args[0], in.Args[1])
	case x86.PXOR, x86.XORPS, x86.XORPD, x86.PSUBB, x86.PSUBW, x86.PSUBD,
		x86.PSUBQ, x86.PCMPGTB, x86.PCMPGTD:
		return len(in.Args) == 2 && sameRegs(in.Args[0], in.Args[1])
	case x86.VXORPS, x86.VXORPD, x86.VPXOR, x86.VPSUBB, x86.VPSUBW,
		x86.VPSUBD, x86.VPSUBQ, x86.VPCMPGTD:
		return len(in.Args) == 3 && sameRegs(in.Args[1], in.Args[2])
	}
	return false
}

// isEliminableMove recognizes register-register moves handled at rename.
func isEliminableMove(in *x86.Inst) bool {
	if len(in.Args) != 2 ||
		in.Args[0].Kind != x86.KindReg || in.Args[1].Kind != x86.KindReg {
		return false
	}
	switch in.Op {
	case x86.MOV:
		c := in.Args[0].Reg.Class()
		return c == x86.ClassGP32 || c == x86.ClassGP64
	case x86.MOVAPS, x86.MOVUPS, x86.MOVAPD, x86.MOVUPD, x86.MOVDQA,
		x86.MOVDQU, x86.VMOVAPS, x86.VMOVUPS, x86.VMOVAPD, x86.VMOVUPD,
		x86.VMOVDQA, x86.VMOVDQU:
		return true
	}
	return false
}

// computeUops returns the computation micro-ops (excluding load/store
// decoration), whether the op handles FP data, and whether the opcode is
// missing from the table (the conservative generic fallback was used).
func (c *CPU) computeUops(in *x86.Inst) ([]Uop, bool, bool) {
	op := in.Op
	one := func(class UopClass, ports PortSet, lat uint8) []Uop {
		return []Uop{{Class: class, Ports: ports, Lat: lat}}
	}
	alu := func(lat uint8) []Uop { return one(ClassIntALU, c.intALUPorts, lat) }

	switch op {
	case x86.MOV, x86.MOVZX, x86.MOVSX, x86.MOVSXD:
		if in.MemArg() >= 0 {
			return nil, false, false // pure load or store
		}
		return alu(1), false, false
	case x86.LEA:
		m := in.Args[1].Mem
		if m.Base != x86.RegNone && m.Index != x86.RegNone && m.Disp != 0 {
			// Three-component LEA is slow and restricted to one port.
			return one(ClassLEA, c.mulPorts, 3), false, false
		}
		return one(ClassLEA, c.leaPorts, 1), false, false
	case x86.PUSH, x86.POP:
		return nil, false, false // stack engine handles the pointer update
	case x86.XCHG:
		return []Uop{
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
		}, false, false

	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST,
		x86.INC, x86.DEC, x86.NEG, x86.NOT, x86.CDQ, x86.CQO:
		return alu(1), false, false
	case x86.ADC, x86.SBB:
		return []Uop{
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
		}, false, false
	case x86.BSWAP:
		return one(ClassIntShift, c.shiftPorts, 2), false, false

	case x86.IMUL:
		return one(ClassIntMul, c.mulPorts, c.mulLat), false, false
	case x86.MUL:
		// Widening multiply: the high-half result needs a second µop.
		return []Uop{
			{Class: ClassIntMul, Ports: c.mulPorts, Lat: c.mulLat + 1},
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
		}, false, false
	case x86.DIV, x86.IDIV:
		lat := c.div32Lat
		if argSize(in, 0) == 8 {
			lat = c.div64Lat
		}
		return []Uop{{Class: ClassIntDiv, Ports: c.divPorts, Lat: lat, Occupancy: lat}}, false, false

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		if len(in.Args) == 2 && in.Args[1].IsReg(x86.CL) {
			return one(ClassIntShift, c.shiftCLPorts, 2), false, false
		}
		return one(ClassIntShift, c.shiftPorts, 1), false, false

	case x86.POPCNT, x86.LZCNT, x86.TZCNT, x86.BSF, x86.BSR:
		return one(ClassIntALU, c.mulPorts, 3), false, false
	case x86.BT:
		return one(ClassIntShift, c.shiftPorts, 1), false, false

	case x86.CMOVE, x86.CMOVNE, x86.CMOVL, x86.CMOVLE, x86.CMOVG,
		x86.CMOVGE, x86.CMOVB, x86.CMOVBE, x86.CMOVA, x86.CMOVAE,
		x86.CMOVS, x86.CMOVNS:
		return []Uop{
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
			{Class: ClassIntALU, Ports: c.intALUPorts, Lat: 1},
		}, false, false
	case x86.SETE, x86.SETNE, x86.SETL, x86.SETLE, x86.SETG, x86.SETGE,
		x86.SETB, x86.SETBE, x86.SETA, x86.SETAE, x86.SETS, x86.SETNS:
		return one(ClassIntALU, c.shiftPorts, 1), false, false

	case x86.NOP, x86.VZEROUPPER:
		return nil, false, false

	case x86.JMP, x86.JE, x86.JNE, x86.JL, x86.JLE, x86.JG, x86.JGE,
		x86.JB, x86.JBE, x86.JA, x86.JAE, x86.JS, x86.JNS, x86.CALL, x86.RET:
		return one(ClassBranch, c.branchPorts, 1), false, false

	// Scalar/packed FP moves.
	case x86.MOVSS, x86.MOVSD, x86.VMOVSS, x86.VMOVSD:
		if in.MemArg() >= 0 {
			return nil, false, false
		}
		return one(ClassShuffle, c.shufflePorts, 1), false, false
	case x86.MOVAPS, x86.MOVUPS, x86.MOVAPD, x86.MOVUPD, x86.MOVDQA,
		x86.MOVDQU, x86.VMOVAPS, x86.VMOVUPS, x86.VMOVAPD, x86.VMOVUPD,
		x86.VMOVDQA, x86.VMOVDQU:
		if in.MemArg() >= 0 {
			return nil, false, false
		}
		return one(ClassVecLogic, c.vecLogPorts, 1), false, false
	case x86.MOVD, x86.MOVQ:
		if in.MemArg() >= 0 {
			return nil, false, false
		}
		if in.Args[0].Reg.IsGP() || in.Args[1].Reg.IsGP() {
			return one(ClassTransfer, c.transferPort, 2), false, false
		}
		return one(ClassVecLogic, c.vecLogPorts, 1), false, false

	// FP arithmetic.
	case x86.ADDSS, x86.ADDSD, x86.SUBSS, x86.SUBSD, x86.ADDPS, x86.ADDPD,
		x86.SUBPS, x86.SUBPD, x86.MINSS, x86.MINSD, x86.MAXSS, x86.MAXSD,
		x86.MINPS, x86.MAXPS, x86.VADDSS, x86.VADDSD, x86.VSUBSS,
		x86.VSUBSD, x86.VADDPS, x86.VADDPD, x86.VSUBPS, x86.VSUBPD,
		x86.VMINPS, x86.VMAXPS:
		return one(ClassFPAdd, c.fpAddPorts, c.fpAddLat), true, false
	case x86.MULSS, x86.MULSD, x86.MULPS, x86.MULPD, x86.VMULSS,
		x86.VMULSD, x86.VMULPS, x86.VMULPD:
		return one(ClassFPMul, c.fpMulPorts, c.fpMulLat), true, false
	case x86.DIVSS, x86.DIVSD, x86.VDIVSS, x86.VDIVSD:
		return []Uop{{Class: ClassFPDiv, Ports: c.divPorts, Lat: c.divSSLat, Occupancy: c.divSSOcc}}, true, false
	case x86.DIVPS, x86.DIVPD, x86.VDIVPS, x86.VDIVPD:
		occ := c.divSSOcc
		if in.Is256() {
			occ *= 2
		}
		return []Uop{{Class: ClassFPDiv, Ports: c.divPorts, Lat: c.divPSLat, Occupancy: occ}}, true, false
	case x86.SQRTSS, x86.SQRTSD, x86.SQRTPS, x86.SQRTPD, x86.VSQRTPS, x86.VSQRTPD:
		occ := c.sqrtOcc
		if in.Is256() {
			occ *= 2
		}
		return []Uop{{Class: ClassFPDiv, Ports: c.divPorts, Lat: c.sqrtLat, Occupancy: occ}}, true, false
	case x86.UCOMISS, x86.UCOMISD, x86.VUCOMISS, x86.VUCOMISD:
		return one(ClassFPAdd, c.fpAddPorts, 2), true, false
	case x86.CVTSI2SS, x86.CVTSI2SD:
		return []Uop{
			{Class: ClassTransfer, Ports: c.transferPort, Lat: 2},
			{Class: ClassFPAdd, Ports: c.fpAddPorts, Lat: c.fpAddLat},
		}, true, false
	case x86.CVTTSS2SI, x86.CVTTSD2SI:
		return []Uop{
			{Class: ClassFPAdd, Ports: c.fpAddPorts, Lat: c.fpAddLat},
			{Class: ClassTransfer, Ports: c.transferPort, Lat: 2},
		}, true, false
	case x86.CVTSS2SD, x86.CVTSD2SS, x86.CVTDQ2PS, x86.CVTPS2DQ,
		x86.VCVTDQ2PS, x86.VCVTPS2DQ:
		return one(ClassFPAdd, c.fpAddPorts, c.fpAddLat), true, false

	// FMA.
	case x86.VFMADD132PS, x86.VFMADD213PS, x86.VFMADD231PS,
		x86.VFMADD132PD, x86.VFMADD213PD, x86.VFMADD231PD,
		x86.VFMADD132SS, x86.VFMADD213SS, x86.VFMADD231SS,
		x86.VFMADD132SD, x86.VFMADD213SD, x86.VFMADD231SD,
		x86.VFNMADD231PS, x86.VFNMADD231PD:
		return one(ClassFMA, c.fpMulPorts, c.fmaLat), true, false

	// Vector logic / integer.
	case x86.XORPS, x86.XORPD, x86.ANDPS, x86.ANDPD, x86.ORPS, x86.ORPD,
		x86.PXOR, x86.PAND, x86.PANDN, x86.POR, x86.VXORPS, x86.VXORPD,
		x86.VANDPS, x86.VANDPD, x86.VORPS, x86.VORPD, x86.VPXOR,
		x86.VPAND, x86.VPANDN, x86.VPOR:
		return one(ClassVecLogic, c.vecLogPorts, 1), false, false
	case x86.PADDB, x86.PADDW, x86.PADDD, x86.PADDQ, x86.PSUBB, x86.PSUBW,
		x86.PSUBD, x86.PSUBQ, x86.VPADDB, x86.VPADDW, x86.VPADDD,
		x86.VPADDQ, x86.VPSUBB, x86.VPSUBW, x86.VPSUBD, x86.VPSUBQ:
		return one(ClassVecALU, c.vecALUPorts, 1), false, false
	case x86.PCMPEQB, x86.PCMPEQD, x86.PCMPGTB, x86.PCMPGTD,
		x86.VPCMPEQB, x86.VPCMPEQD, x86.VPCMPGTD:
		return one(ClassVecALU, c.vecCmpPorts, 1), false, false
	case x86.PMULLW, x86.PMULUDQ, x86.VPMULLW:
		return one(ClassVecMul, c.vecMulPorts, 5), false, false
	case x86.PMULLD, x86.VPMULLD:
		return one(ClassVecMul, c.vecMulPorts, c.pmulldLat), false, false
	case x86.PSLLW, x86.PSLLD, x86.PSLLQ, x86.PSRLW, x86.PSRLD, x86.PSRLQ,
		x86.PSRAW, x86.PSRAD, x86.VPSLLD, x86.VPSLLQ, x86.VPSRLD, x86.VPSRLQ:
		return one(ClassVecShift, c.vecShiftPort, 1), false, false
	case x86.PUNPCKLBW, x86.PUNPCKLWD, x86.PUNPCKLDQ, x86.PUNPCKHDQ,
		x86.PSHUFD, x86.SHUFPS, x86.UNPCKLPS, x86.VSHUFPS, x86.VPSHUFD:
		return one(ClassShuffle, c.shufflePorts, 1), false, false
	case x86.PMOVMSKB, x86.MOVMSKPS, x86.VPMOVMSKB:
		return one(ClassTransfer, c.transferPort, 3), false, false
	case x86.VBROADCASTSS, x86.VBROADCASTSD, x86.VPBROADCASTB,
		x86.VPBROADCASTD, x86.VPBROADCASTQ:
		if in.MemArg() >= 0 {
			return nil, false, false // broadcast folded into the load
		}
		return one(ClassShuffle, c.shufflePorts, 3), false, false
	case x86.VEXTRACTF128, x86.VINSERTF128, x86.VEXTRACTI128, x86.VINSERTI128:
		if in.MemArg() >= 0 {
			return nil, false, false
		}
		return one(ClassShuffle, c.shufflePorts, 3), false, false
	}

	// Conservative default: a single-cycle ALU op. The generic flag marks
	// the descriptor so downstream analyses (static cycle bounds, BL015)
	// know the latency and port assignment are guesses, not table entries.
	return alu(1), false, true
}

// argSize returns the byte width of operand k.
func argSize(in *x86.Inst, k int) int {
	a := in.Args[k]
	switch a.Kind {
	case x86.KindReg:
		return a.Reg.Size()
	case x86.KindMem:
		return int(a.Mem.Size)
	}
	return 0
}
