package exec

import (
	"fmt"
	"math"

	"bhive/internal/x86"
)

// AlignmentError is the #GP fault raised by aligned vector moves
// (movaps/movdqa and friends) on a misaligned address.
type AlignmentError struct {
	Addr uint64
	Req  int
}

func (e *AlignmentError) Error() string {
	return fmt.Sprintf("exec: alignment fault: %#x not %d-byte aligned", e.Addr, e.Req)
}

// IsVector reports whether op runs on the vector unit: every op of a
// vector ISA extension, legacy SSE and VEX alike (VZEROUPPER included).
func IsVector(op x86.Op) bool {
	return op.Features()&(x86.FeatSSE|x86.FeatAVX|x86.FeatAVX2|x86.FeatFMA) != 0
}

// readVecArg materializes operand k as a 256-bit value (memory operands are
// zero-padded above their access size).
func (r *Runner) readVecArg(in *x86.Inst, k int, step *Step) ([32]byte, error) {
	a := in.Args[k]
	switch a.Kind {
	case x86.KindReg:
		if a.Reg.IsVec() {
			return r.State.ReadVec(a.Reg), nil
		}
		var v [32]byte
		setU64(&v, 0, r.State.ReadGPR(a.Reg))
		return v, nil
	case x86.KindMem:
		var v [32]byte
		err := r.loadBytes(r.ea(a.Mem), v[:a.Mem.Size], step)
		return v, err
	}
	return [32]byte{}, fmt.Errorf("exec: bad vector operand")
}

func (r *Runner) execVec(in *x86.Inst, step *Step) error {
	op := in.Op
	vex := op.IsVex()
	width := 16
	if in.Is256() {
		width = 32
	}

	if op == x86.VZEROUPPER {
		for i := range r.State.Vec {
			for b := 16; b < 32; b++ {
				r.State.Vec[i][b] = 0
			}
		}
		return nil
	}

	switch op {
	case x86.MOVSS, x86.MOVSD, x86.VMOVSS, x86.VMOVSD:
		return r.execScalarMove(in, step)
	case x86.MOVAPS, x86.MOVUPS, x86.MOVAPD, x86.MOVUPD, x86.MOVDQA,
		x86.MOVDQU, x86.VMOVAPS, x86.VMOVUPS, x86.VMOVAPD, x86.VMOVUPD,
		x86.VMOVDQA, x86.VMOVDQU:
		return r.execVecMove(in, step, width, vex)
	case x86.MOVD, x86.MOVQ:
		return r.execTransfer(in, step)
	case x86.UCOMISS, x86.UCOMISD, x86.VUCOMISS, x86.VUCOMISD:
		return r.execUComi(in, step)
	case x86.CVTSI2SS, x86.CVTSI2SD, x86.CVTTSS2SI, x86.CVTTSD2SI,
		x86.CVTSS2SD, x86.CVTSD2SS, x86.CVTDQ2PS, x86.CVTPS2DQ,
		x86.VCVTDQ2PS, x86.VCVTPS2DQ:
		return r.execCvt(in, step, width, vex)
	case x86.PMOVMSKB, x86.MOVMSKPS, x86.VPMOVMSKB:
		return r.execMovMsk(in, step, width)
	case x86.VBROADCASTSS, x86.VBROADCASTSD, x86.VPBROADCASTB,
		x86.VPBROADCASTD, x86.VPBROADCASTQ:
		return r.execBroadcast(in, step, width)
	case x86.VEXTRACTF128, x86.VEXTRACTI128:
		return r.execExtract128(in, step)
	case x86.VINSERTF128, x86.VINSERTI128:
		return r.execInsert128(in, step)
	case x86.PSHUFD, x86.VPSHUFD:
		return r.execPshufd(in, step, width, vex)
	case x86.SHUFPS, x86.VSHUFPS:
		return r.execShufps(in, step, width, vex)
	}

	// Remaining ops are "dst = f(src1, src2)" shaped (or unary like sqrt).
	dst := in.Args[0].Reg
	var a, b [32]byte
	var err error
	switch {
	case len(in.Args) == 3 && in.Args[2].Kind != x86.KindImm: // VEX 3-op
		if a, err = r.readVecArg(in, 1, step); err != nil {
			return err
		}
		if b, err = r.readVecArg(in, 2, step); err != nil {
			return err
		}
	case len(in.Args) >= 2 && in.Args[1].Kind != x86.KindImm:
		if a, err = r.readVecArg(in, 0, step); err != nil {
			return err
		}
		if b, err = r.readVecArg(in, 1, step); err != nil {
			return err
		}
	}

	// FMA reads three vector inputs: dst, src2, src3.
	if op.Features()&x86.FeatFMA != 0 {
		return r.execFMA(in, step, width)
	}

	var res [32]byte
	fp := false
	switch op {
	case x86.ADDPS, x86.VADDPS:
		fp = true
		r.lanesF32(&res, &a, &b, width, step, func(x, y float32) float32 { return x + y })
	case x86.SUBPS, x86.VSUBPS:
		fp = true
		r.lanesF32(&res, &a, &b, width, step, func(x, y float32) float32 { return x - y })
	case x86.MULPS, x86.VMULPS:
		fp = true
		r.lanesF32(&res, &a, &b, width, step, func(x, y float32) float32 { return x * y })
	case x86.DIVPS, x86.VDIVPS:
		fp = true
		r.lanesF32(&res, &a, &b, width, step, func(x, y float32) float32 { return x / y })
	case x86.MINPS, x86.VMINPS:
		fp = true
		r.lanesF32(&res, &a, &b, width, step, minF32)
	case x86.MAXPS, x86.VMAXPS:
		fp = true
		r.lanesF32(&res, &a, &b, width, step, maxF32)
	case x86.ADDPD, x86.VADDPD:
		fp = true
		r.lanesF64(&res, &a, &b, width, step, func(x, y float64) float64 { return x + y })
	case x86.SUBPD, x86.VSUBPD:
		fp = true
		r.lanesF64(&res, &a, &b, width, step, func(x, y float64) float64 { return x - y })
	case x86.MULPD, x86.VMULPD:
		fp = true
		r.lanesF64(&res, &a, &b, width, step, func(x, y float64) float64 { return x * y })
	case x86.DIVPD, x86.VDIVPD:
		fp = true
		r.lanesF64(&res, &a, &b, width, step, func(x, y float64) float64 { return x / y })
	case x86.SQRTPS, x86.VSQRTPS:
		fp = true
		r.lanesF32(&res, &b, &b, width, step, func(_, y float32) float32 {
			return float32(math.Sqrt(float64(y)))
		})
	case x86.SQRTPD, x86.VSQRTPD:
		fp = true
		r.lanesF64(&res, &b, &b, width, step, func(_, y float64) float64 {
			return math.Sqrt(y)
		})

	case x86.ADDSS, x86.VADDSS, x86.SUBSS, x86.VSUBSS, x86.MULSS,
		x86.VMULSS, x86.DIVSS, x86.VDIVSS, x86.MINSS, x86.MAXSS,
		x86.SQRTSS, x86.CVTSS2SD:
		return r.execScalarF32(in, step, &a, &b)
	case x86.ADDSD, x86.VADDSD, x86.SUBSD, x86.VSUBSD, x86.MULSD,
		x86.VMULSD, x86.DIVSD, x86.VDIVSD, x86.MINSD, x86.MAXSD, x86.SQRTSD:
		return r.execScalarF64(in, step, &a, &b)

	case x86.XORPS, x86.XORPD, x86.PXOR, x86.VXORPS, x86.VXORPD, x86.VPXOR:
		for i := 0; i < width; i++ {
			res[i] = a[i] ^ b[i]
		}
	case x86.ANDPS, x86.ANDPD, x86.PAND, x86.VANDPS, x86.VANDPD, x86.VPAND:
		for i := 0; i < width; i++ {
			res[i] = a[i] & b[i]
		}
	case x86.ORPS, x86.ORPD, x86.POR, x86.VORPS, x86.VORPD, x86.VPOR:
		for i := 0; i < width; i++ {
			res[i] = a[i] | b[i]
		}
	case x86.PANDN, x86.VPANDN:
		for i := 0; i < width; i++ {
			res[i] = ^a[i] & b[i]
		}

	case x86.PADDB, x86.VPADDB:
		for i := 0; i < width; i++ {
			res[i] = a[i] + b[i]
		}
	case x86.PSUBB, x86.VPSUBB:
		for i := 0; i < width; i++ {
			res[i] = a[i] - b[i]
		}
	case x86.PADDW, x86.VPADDW:
		for i := 0; i < width/2; i++ {
			setU16(&res, i, getU16(&a, i)+getU16(&b, i))
		}
	case x86.PSUBW, x86.VPSUBW:
		for i := 0; i < width/2; i++ {
			setU16(&res, i, getU16(&a, i)-getU16(&b, i))
		}
	case x86.PADDD, x86.VPADDD:
		for i := 0; i < width/4; i++ {
			setU32(&res, i, getU32(&a, i)+getU32(&b, i))
		}
	case x86.PSUBD, x86.VPSUBD:
		for i := 0; i < width/4; i++ {
			setU32(&res, i, getU32(&a, i)-getU32(&b, i))
		}
	case x86.PADDQ, x86.VPADDQ:
		for i := 0; i < width/8; i++ {
			setU64(&res, i, getU64(&a, i)+getU64(&b, i))
		}
	case x86.PSUBQ, x86.VPSUBQ:
		for i := 0; i < width/8; i++ {
			setU64(&res, i, getU64(&a, i)-getU64(&b, i))
		}

	case x86.PMULLW, x86.VPMULLW:
		for i := 0; i < width/2; i++ {
			setU16(&res, i, getU16(&a, i)*getU16(&b, i))
		}
	case x86.PMULLD, x86.VPMULLD:
		for i := 0; i < width/4; i++ {
			setU32(&res, i, getU32(&a, i)*getU32(&b, i))
		}
	case x86.PMULUDQ:
		for i := 0; i < width/8; i++ {
			setU64(&res, i, uint64(getU32(&a, 2*i))*uint64(getU32(&b, 2*i)))
		}

	case x86.PCMPEQB, x86.VPCMPEQB:
		for i := 0; i < width; i++ {
			res[i] = cmpMask8(a[i] == b[i])
		}
	case x86.PCMPEQD, x86.VPCMPEQD:
		for i := 0; i < width/4; i++ {
			setU32(&res, i, cmpMask32(getU32(&a, i) == getU32(&b, i)))
		}
	case x86.PCMPGTB:
		for i := 0; i < width; i++ {
			res[i] = cmpMask8(int8(a[i]) > int8(b[i]))
		}
	case x86.PCMPGTD, x86.VPCMPGTD:
		for i := 0; i < width/4; i++ {
			setU32(&res, i, cmpMask32(int32(getU32(&a, i)) > int32(getU32(&b, i))))
		}

	case x86.PSLLW, x86.PSLLD, x86.PSLLQ, x86.PSRLW, x86.PSRLD, x86.PSRLQ,
		x86.PSRAW, x86.PSRAD, x86.VPSLLD, x86.VPSLLQ, x86.VPSRLD, x86.VPSRLQ:
		return r.execVecShift(in, step, width, vex)

	case x86.PUNPCKLBW:
		for i := 0; i < 8; i++ {
			res[2*i] = a[i]
			res[2*i+1] = b[i]
		}
	case x86.PUNPCKLWD:
		for i := 0; i < 4; i++ {
			setU16(&res, 2*i, getU16(&a, i))
			setU16(&res, 2*i+1, getU16(&b, i))
		}
	case x86.PUNPCKLDQ:
		for i := 0; i < 2; i++ {
			setU32(&res, 2*i, getU32(&a, i))
			setU32(&res, 2*i+1, getU32(&b, i))
		}
	case x86.PUNPCKHDQ:
		for i := 0; i < 2; i++ {
			setU32(&res, 2*i, getU32(&a, i+2))
			setU32(&res, 2*i+1, getU32(&b, i+2))
		}
	case x86.UNPCKLPS:
		for i := 0; i < 2; i++ {
			setU32(&res, 2*i, getU32(&a, i))
			setU32(&res, 2*i+1, getU32(&b, i))
		}

	default:
		return &UnimplementedError{Op: op, Vector: true}
	}
	_ = fp
	r.State.WriteVec(dst, res, width, vex)
	return nil
}

func cmpMask8(b bool) byte {
	if b {
		return 0xFF
	}
	return 0
}

func cmpMask32(b bool) uint32 {
	if b {
		return 0xFFFFFFFF
	}
	return 0
}

func minF32(x, y float32) float32 {
	if x < y {
		return x
	}
	return y // NaN and equal cases return the second operand, as in hardware
}

func maxF32(x, y float32) float32 {
	if x > y {
		return x
	}
	return y
}

func minF64(x, y float64) float64 {
	if x < y {
		return x
	}
	return y
}

func maxF64(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

// lanesF32 applies a binary float32 op per lane with DAZ/FTZ handling and
// subnormal accounting.
func (r *Runner) lanesF32(res, a, b *[32]byte, width int, step *Step, f func(x, y float32) float32) {
	for i := 0; i < width/4; i++ {
		setF32(res, i, r.f32op(getF32(a, i), getF32(b, i), step, f))
	}
}

func (r *Runner) lanesF64(res, a, b *[32]byte, width int, step *Step, f func(x, y float64) float64) {
	for i := 0; i < width/8; i++ {
		setF64(res, i, r.f64op(getF64(a, i), getF64(b, i), step, f))
	}
}

func (r *Runner) f32op(x, y float32, step *Step, f func(x, y float32) float32) float32 {
	if r.State.DAZ {
		if isSubnormal32(x) {
			x = 0
		}
		if isSubnormal32(y) {
			y = 0
		}
	} else if isSubnormal32(x) || isSubnormal32(y) {
		step.Subnormal = true
	}
	res := f(x, y)
	if isSubnormal32(res) {
		if r.State.FTZ {
			res = 0
		} else {
			step.Subnormal = true
		}
	}
	return res
}

func (r *Runner) f64op(x, y float64, step *Step, f func(x, y float64) float64) float64 {
	if r.State.DAZ {
		if isSubnormal64(x) {
			x = 0
		}
		if isSubnormal64(y) {
			y = 0
		}
	} else if isSubnormal64(x) || isSubnormal64(y) {
		step.Subnormal = true
	}
	res := f(x, y)
	if isSubnormal64(res) {
		if r.State.FTZ {
			res = 0
		} else {
			step.Subnormal = true
		}
	}
	return res
}

func (r *Runner) execScalarMove(in *x86.Inst, step *Step) error {
	op := in.Op
	size := 4
	if op == x86.MOVSD || op == x86.VMOVSD {
		size = 8
	}
	vex := op.IsVex()
	switch {
	case len(in.Args) == 3: // vmovss xmm1, xmm2, xmm3
		res := r.State.ReadVec(in.Args[1].Reg)
		src2 := r.State.ReadVec(in.Args[2].Reg)
		copy(res[:size], src2[:size])
		r.State.WriteVec(in.Args[0].Reg, res, 16, true)
	case in.Args[0].Kind == x86.KindMem: // store
		src := r.State.ReadVec(in.Args[1].Reg)
		return r.storeBytes(r.ea(in.Args[0].Mem), src[:size], step)
	case in.Args[1].Kind == x86.KindMem: // load: zeroes the rest of xmm
		var v [32]byte
		if err := r.loadBytes(r.ea(in.Args[1].Mem), v[:size], step); err != nil {
			return err
		}
		r.State.WriteVec(in.Args[0].Reg, v, 16, true)
	default: // legacy reg-reg merges the low lane
		res := r.State.ReadVec(in.Args[0].Reg)
		src := r.State.ReadVec(in.Args[1].Reg)
		copy(res[:size], src[:size])
		r.State.WriteVec(in.Args[0].Reg, res, 16, vex)
	}
	return nil
}

func (r *Runner) execVecMove(in *x86.Inst, step *Step, width int, vex bool) error {
	if in.Args[0].Kind == x86.KindMem { // store
		m := in.Args[0].Mem
		addr := r.ea(m)
		if in.Op.IsAlignedMove() && addr%uint64(width) != 0 {
			return &AlignmentError{Addr: addr, Req: width}
		}
		src := r.State.ReadVec(in.Args[1].Reg)
		return r.storeBytes(addr, src[:width], step)
	}
	if in.Args[1].Kind == x86.KindMem { // load
		addr := r.ea(in.Args[1].Mem)
		if in.Op.IsAlignedMove() && addr%uint64(width) != 0 {
			return &AlignmentError{Addr: addr, Req: width}
		}
		var v [32]byte
		if err := r.loadBytes(addr, v[:width], step); err != nil {
			return err
		}
		r.State.WriteVec(in.Args[0].Reg, v, width, true)
		return nil
	}
	r.State.WriteVec(in.Args[0].Reg, r.State.ReadVec(in.Args[1].Reg), width, vex)
	return nil
}

func (r *Runner) execTransfer(in *x86.Inst, step *Step) error {
	op := in.Op
	size := 4
	if op == x86.MOVQ {
		size = 8
	}
	dst, src := in.Args[0], in.Args[1]
	switch {
	case dst.Kind == x86.KindReg && dst.Reg.IsVec():
		var v [32]byte
		switch src.Kind {
		case x86.KindMem:
			if err := r.loadBytes(r.ea(src.Mem), v[:size], step); err != nil {
				return err
			}
		default:
			if src.Reg.IsVec() {
				s := r.State.ReadVec(src.Reg)
				copy(v[:size], s[:size])
			} else {
				setU64(&v, 0, r.State.ReadGPR(src.Reg))
			}
		}
		r.State.WriteVec(dst.Reg, v, 16, true)
	case dst.Kind == x86.KindMem:
		s := r.State.ReadVec(src.Reg)
		return r.storeBytes(r.ea(dst.Mem), s[:size], step)
	default: // GPR destination
		s := r.State.ReadVec(src.Reg)
		r.State.WriteGPR(dst.Reg, maskTo(getU64(&s, 0), size))
	}
	return nil
}

func (r *Runner) execUComi(in *x86.Inst, step *Step) error {
	s := r.State
	a, err := r.readVecArg(in, 0, step)
	if err != nil {
		return err
	}
	b, err := r.readVecArg(in, 1, step)
	if err != nil {
		return err
	}
	var x, y float64
	if in.Op == x86.UCOMISS || in.Op == x86.VUCOMISS {
		x, y = float64(getF32(&a, 0)), float64(getF32(&b, 0))
	} else {
		x, y = getF64(&a, 0), getF64(&b, 0)
	}
	s.OF, s.SF = false, false
	switch {
	case math.IsNaN(x) || math.IsNaN(y):
		s.ZF, s.PF, s.CF = true, true, true
	case x > y:
		s.ZF, s.PF, s.CF = false, false, false
	case x < y:
		s.ZF, s.PF, s.CF = false, false, true
	default:
		s.ZF, s.PF, s.CF = true, false, false
	}
	return nil
}

func (r *Runner) execCvt(in *x86.Inst, step *Step, width int, vex bool) error {
	s := r.State
	switch in.Op {
	case x86.CVTSI2SS, x86.CVTSI2SD:
		v, err := r.readIntArg(in, 1, step)
		if err != nil {
			return err
		}
		iv := signExtend(v, intOpSize(in, 1))
		res := s.ReadVec(in.Args[0].Reg)
		if in.Op == x86.CVTSI2SS {
			setF32(&res, 0, float32(iv))
		} else {
			setF64(&res, 0, float64(iv))
		}
		s.WriteVec(in.Args[0].Reg, res, 16, false)
	case x86.CVTTSS2SI, x86.CVTTSD2SI:
		v, err := r.readVecArg(in, 1, step)
		if err != nil {
			return err
		}
		var f float64
		if in.Op == x86.CVTTSS2SI {
			f = float64(getF32(&v, 0))
		} else {
			f = getF64(&v, 0)
		}
		s.WriteGPR(in.Args[0].Reg, uint64(int64(f)))
	case x86.CVTSS2SD:
		v, err := r.readVecArg(in, 1, step)
		if err != nil {
			return err
		}
		res := s.ReadVec(in.Args[0].Reg)
		setF64(&res, 0, float64(getF32(&v, 0)))
		s.WriteVec(in.Args[0].Reg, res, 16, false)
	case x86.CVTSD2SS:
		v, err := r.readVecArg(in, 1, step)
		if err != nil {
			return err
		}
		res := s.ReadVec(in.Args[0].Reg)
		setF32(&res, 0, float32(getF64(&v, 0)))
		s.WriteVec(in.Args[0].Reg, res, 16, false)
	case x86.CVTDQ2PS, x86.VCVTDQ2PS:
		v, err := r.readVecArg(in, 1, step)
		if err != nil {
			return err
		}
		var res [32]byte
		for i := 0; i < width/4; i++ {
			setF32(&res, i, float32(int32(getU32(&v, i))))
		}
		s.WriteVec(in.Args[0].Reg, res, width, vex)
	case x86.CVTPS2DQ, x86.VCVTPS2DQ:
		v, err := r.readVecArg(in, 1, step)
		if err != nil {
			return err
		}
		var res [32]byte
		for i := 0; i < width/4; i++ {
			setU32(&res, i, uint32(int32(math.RoundToEven(float64(getF32(&v, i))))))
		}
		s.WriteVec(in.Args[0].Reg, res, width, vex)
	}
	return nil
}

func (r *Runner) execMovMsk(in *x86.Inst, step *Step, width int) error {
	v, err := r.readVecArg(in, 1, step)
	if err != nil {
		return err
	}
	var mask uint64
	if in.Op == x86.MOVMSKPS {
		for i := 0; i < 4; i++ {
			if getU32(&v, i)>>31 == 1 {
				mask |= 1 << i
			}
		}
	} else {
		for i := 0; i < width; i++ {
			if v[i]>>7 == 1 {
				mask |= 1 << i
			}
		}
	}
	r.State.WriteGPR(in.Args[0].Reg, mask)
	return nil
}

func (r *Runner) execBroadcast(in *x86.Inst, step *Step, width int) error {
	v, err := r.readVecArg(in, 1, step)
	if err != nil {
		return err
	}
	var res [32]byte
	lane := 0
	switch in.Op {
	case x86.VPBROADCASTB:
		lane = 1
	case x86.VBROADCASTSS, x86.VPBROADCASTD:
		lane = 4
	case x86.VBROADCASTSD, x86.VPBROADCASTQ:
		lane = 8
	}
	for off := 0; off < width; off += lane {
		copy(res[off:off+lane], v[:lane])
	}
	r.State.WriteVec(in.Args[0].Reg, res, width, true)
	return nil
}

func (r *Runner) execExtract128(in *x86.Inst, step *Step) error {
	src := r.State.ReadVec(in.Args[1].Reg)
	sel := int(in.Args[2].Imm) & 1
	var half [32]byte
	copy(half[:16], src[sel*16:sel*16+16])
	if in.Args[0].Kind == x86.KindMem {
		return r.storeBytes(r.ea(in.Args[0].Mem), half[:16], step)
	}
	r.State.WriteVec(in.Args[0].Reg, half, 16, true)
	return nil
}

func (r *Runner) execInsert128(in *x86.Inst, step *Step) error {
	res := r.State.ReadVec(in.Args[1].Reg)
	src, err := r.readVecArg(in, 2, step)
	if err != nil {
		return err
	}
	sel := int(in.Args[3].Imm) & 1
	copy(res[sel*16:sel*16+16], src[:16])
	r.State.WriteVec(in.Args[0].Reg, res, 32, true)
	return nil
}

func (r *Runner) execPshufd(in *x86.Inst, step *Step, width int, vex bool) error {
	src, err := r.readVecArg(in, 1, step)
	if err != nil {
		return err
	}
	imm := uint8(in.Args[2].Imm)
	var res [32]byte
	for lane := 0; lane < width; lane += 16 {
		base := lane / 4
		for i := 0; i < 4; i++ {
			sel := int(imm>>(2*i)) & 3
			setU32(&res, base+i, getU32(&src, base+sel))
		}
	}
	r.State.WriteVec(in.Args[0].Reg, res, width, vex)
	return nil
}

func (r *Runner) execShufps(in *x86.Inst, step *Step, width int, vex bool) error {
	var a, b [32]byte
	var err error
	immIdx := 2
	if len(in.Args) == 4 { // VEX form
		if a, err = r.readVecArg(in, 1, step); err != nil {
			return err
		}
		if b, err = r.readVecArg(in, 2, step); err != nil {
			return err
		}
		immIdx = 3
	} else {
		a = r.State.ReadVec(in.Args[0].Reg)
		if b, err = r.readVecArg(in, 1, step); err != nil {
			return err
		}
	}
	imm := uint8(in.Args[immIdx].Imm)
	var res [32]byte
	for lane := 0; lane < width; lane += 16 {
		base := lane / 4
		setU32(&res, base+0, getU32(&a, base+int(imm>>0)&3))
		setU32(&res, base+1, getU32(&a, base+int(imm>>2)&3))
		setU32(&res, base+2, getU32(&b, base+int(imm>>4)&3))
		setU32(&res, base+3, getU32(&b, base+int(imm>>6)&3))
	}
	r.State.WriteVec(in.Args[0].Reg, res, width, vex)
	return nil
}

func (r *Runner) execVecShift(in *x86.Inst, step *Step, width int, vex bool) error {
	var src [32]byte
	var cnt uint64
	var dst x86.Reg
	var err error
	if in.Args[len(in.Args)-1].Kind == x86.KindImm {
		cnt = uint64(in.Args[len(in.Args)-1].Imm)
		if len(in.Args) == 3 { // VEX: vpslld dst, src, imm
			src = r.State.ReadVec(in.Args[1].Reg)
		} else {
			src = r.State.ReadVec(in.Args[0].Reg)
		}
		dst = in.Args[0].Reg
	} else {
		if len(in.Args) == 3 { // VEX: vpslld dst, src1, xmm/m
			src = r.State.ReadVec(in.Args[1].Reg)
			var c [32]byte
			if c, err = r.readVecArg(in, 2, step); err != nil {
				return err
			}
			cnt = getU64(&c, 0)
		} else {
			src = r.State.ReadVec(in.Args[0].Reg)
			var c [32]byte
			if c, err = r.readVecArg(in, 1, step); err != nil {
				return err
			}
			cnt = getU64(&c, 0)
		}
		dst = in.Args[0].Reg
	}

	var res [32]byte
	elem := 0
	arith, right := false, false
	switch in.Op {
	case x86.PSLLW:
		elem = 2
	case x86.PSLLD, x86.VPSLLD:
		elem = 4
	case x86.PSLLQ, x86.VPSLLQ:
		elem = 8
	case x86.PSRLW:
		elem, right = 2, true
	case x86.PSRLD, x86.VPSRLD:
		elem, right = 4, true
	case x86.PSRLQ, x86.VPSRLQ:
		elem, right = 8, true
	case x86.PSRAW:
		elem, right, arith = 2, true, true
	case x86.PSRAD:
		elem, right, arith = 4, true, true
	}
	bitsN := uint64(elem) * 8
	for off := 0; off < width; off += elem {
		var v uint64
		switch elem {
		case 2:
			v = uint64(getU16(&src, off/2))
		case 4:
			v = uint64(getU32(&src, off/4))
		case 8:
			v = getU64(&src, off/8)
		}
		var out uint64
		switch {
		case cnt >= bitsN && !arith:
			out = 0
		case cnt >= bitsN && arith:
			out = uint64(signExtend(v, elem) >> (bitsN - 1))
		case right && arith:
			out = uint64(signExtend(v, elem) >> cnt)
		case right:
			out = v >> cnt
		default:
			out = v << cnt
		}
		switch elem {
		case 2:
			setU16(&res, off/2, uint16(out))
		case 4:
			setU32(&res, off/4, uint32(out))
		case 8:
			setU64(&res, off/8, out)
		}
	}
	r.State.WriteVec(dst, res, width, vex)
	return nil
}

func (r *Runner) execScalarF32(in *x86.Inst, step *Step, a, b *[32]byte) error {
	// For legacy 2-op forms a is dst, b is src; for VEX 3-op a is src1, b is
	// src2 (already loaded by the caller).
	op := in.Op
	x, y := getF32(a, 0), getF32(b, 0)
	var res float32
	switch op {
	case x86.ADDSS, x86.VADDSS:
		res = r.f32op(x, y, step, func(p, q float32) float32 { return p + q })
	case x86.SUBSS, x86.VSUBSS:
		res = r.f32op(x, y, step, func(p, q float32) float32 { return p - q })
	case x86.MULSS, x86.VMULSS:
		res = r.f32op(x, y, step, func(p, q float32) float32 { return p * q })
	case x86.DIVSS, x86.VDIVSS:
		res = r.f32op(x, y, step, func(p, q float32) float32 { return p / q })
	case x86.MINSS:
		res = r.f32op(x, y, step, minF32)
	case x86.MAXSS:
		res = r.f32op(x, y, step, maxF32)
	case x86.SQRTSS:
		res = r.f32op(y, y, step, func(_, q float32) float32 {
			return float32(math.Sqrt(float64(q)))
		})
	}
	out := *a
	setF32(&out, 0, res)
	r.State.WriteVec(in.Args[0].Reg, out, 16, op.IsVex())
	return nil
}

func (r *Runner) execScalarF64(in *x86.Inst, step *Step, a, b *[32]byte) error {
	op := in.Op
	x, y := getF64(a, 0), getF64(b, 0)
	var res float64
	switch op {
	case x86.ADDSD, x86.VADDSD:
		res = r.f64op(x, y, step, func(p, q float64) float64 { return p + q })
	case x86.SUBSD, x86.VSUBSD:
		res = r.f64op(x, y, step, func(p, q float64) float64 { return p - q })
	case x86.MULSD, x86.VMULSD:
		res = r.f64op(x, y, step, func(p, q float64) float64 { return p * q })
	case x86.DIVSD, x86.VDIVSD:
		res = r.f64op(x, y, step, func(p, q float64) float64 { return p / q })
	case x86.MINSD:
		res = r.f64op(x, y, step, minF64)
	case x86.MAXSD:
		res = r.f64op(x, y, step, maxF64)
	case x86.SQRTSD:
		res = r.f64op(y, y, step, func(_, q float64) float64 { return math.Sqrt(q) })
	}
	out := *a
	setF64(&out, 0, res)
	r.State.WriteVec(in.Args[0].Reg, out, 16, op.IsVex())
	return nil
}

func (r *Runner) execFMA(in *x86.Inst, step *Step, width int) error {
	op := in.Op
	dstv := r.State.ReadVec(in.Args[0].Reg)
	src2 := r.State.ReadVec(in.Args[1].Reg)
	src3, err := r.readVecArg(in, 2, step)
	if err != nil {
		return err
	}

	// Operand roles by the numeric suffix: 132: d = d*s3 + s2;
	// 213: d = s2*d + s3; 231: d = s2*s3 + d.
	var ma, mb, ad *[32]byte
	switch op {
	case x86.VFMADD132PS, x86.VFMADD132PD, x86.VFMADD132SS, x86.VFMADD132SD:
		ma, mb, ad = &dstv, &src3, &src2
	case x86.VFMADD213PS, x86.VFMADD213PD, x86.VFMADD213SS, x86.VFMADD213SD:
		ma, mb, ad = &src2, &dstv, &src3
	default: // 231 variants
		ma, mb, ad = &src2, &src3, &dstv
	}
	negate := op == x86.VFNMADD231PS || op == x86.VFNMADD231PD

	var res [32]byte
	double := false
	scalar := false
	switch op {
	case x86.VFMADD132PD, x86.VFMADD213PD, x86.VFMADD231PD, x86.VFNMADD231PD:
		double = true
	case x86.VFMADD132SS, x86.VFMADD213SS, x86.VFMADD231SS:
		scalar = true
	case x86.VFMADD132SD, x86.VFMADD213SD, x86.VFMADD231SD:
		double, scalar = true, true
	}

	if double {
		n := width / 8
		if scalar {
			n = 1
			res = dstv
		}
		for i := 0; i < n; i++ {
			v := r.f64op(getF64(ma, i), getF64(mb, i), step, func(p, q float64) float64 { return p * q })
			v = r.f64op(v, getF64(ad, i), step, func(p, q float64) float64 { return p + q })
			if negate {
				v = r.f64op(-getF64(ma, i)*getF64(mb, i), getF64(ad, i), step,
					func(p, q float64) float64 { return p + q })
			}
			setF64(&res, i, v)
		}
	} else {
		n := width / 4
		if scalar {
			n = 1
			res = dstv
		}
		for i := 0; i < n; i++ {
			v := r.f32op(getF32(ma, i), getF32(mb, i), step, func(p, q float32) float32 { return p * q })
			v = r.f32op(v, getF32(ad, i), step, func(p, q float32) float32 { return p + q })
			if negate {
				v = r.f32op(-getF32(ma, i)*getF32(mb, i), getF32(ad, i), step,
					func(p, q float32) float32 { return p + q })
			}
			setF32(&res, i, v)
		}
	}
	if scalar {
		width = 16
	}
	r.State.WriteVec(in.Args[0].Reg, res, width, true)
	return nil
}
