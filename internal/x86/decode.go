package x86

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// decKey identifies a decode-table bucket.
type decKey struct {
	vex    bool
	prefix byte  // legacy mandatory prefix: 0, 0x66, 0xF2 or 0xF3
	vexPP  uint8 // VEX pp field
	vexMap uint8 // VEX mmmmm field
	opcode string
}

var decIndex map[decKey][]int

func buildDecodeIndex() {
	decIndex = make(map[decKey][]int, len(Forms))
	for i := range Forms {
		e := &Forms[i].Enc
		if e.vex {
			k := decKey{vex: true, vexPP: e.vexPP, vexMap: e.vexMap,
				opcode: string(e.opcode[len(e.opcode)-1])}
			decIndex[k] = append(decIndex[k], i)
			continue
		}
		if e.plusR {
			base := e.opcode[len(e.opcode)-1]
			for r := byte(0); r < 8; r++ {
				opc := append(append([]byte{}, e.opcode[:len(e.opcode)-1]...), base+r)
				k := decKey{prefix: e.prefix, opcode: string(opc)}
				decIndex[k] = append(decIndex[k], i)
			}
			continue
		}
		k := decKey{prefix: e.prefix, opcode: string(e.opcode)}
		decIndex[k] = append(decIndex[k], i)
	}
}

// DecodeErr describes a byte sequence that is not a valid instruction in the
// supported subset. For block-level decoding, Offset is the byte position of
// the failing instruction within the whole block and Index is how many
// instructions decoded successfully before it (so the failure is "instruction
// #Index at byte Offset"). Single-instruction Decode always reports Index 0.
type DecodeErr struct {
	Offset int
	Index  int
	Msg    string
}

func (e *DecodeErr) Error() string {
	if e.Index > 0 {
		return fmt.Sprintf("x86: decode error at offset %d (instruction %d): %s", e.Offset, e.Index, e.Msg)
	}
	return fmt.Sprintf("x86: decode error at offset %d: %s", e.Offset, e.Msg)
}

// Decode decodes the first instruction in code, returning the instruction
// and its encoded length.
func Decode(code []byte) (Inst, int, error) {
	d := decoder{code: code}
	in, err := d.decode()
	if err != nil {
		return Inst{}, 0, err
	}
	return in, d.pos, nil
}

// decodeBuf is DecodeBlock's pooled working set.
type decodeBuf struct {
	insts []Inst
	args  []Operand
}

// blockScratch recycles DecodeBlock's buffers, so each call allocates its
// result once, at its exact size: the instructions and one operand array.
var blockScratch = sync.Pool{New: func() any { return new(decodeBuf) }}

// DecodeBlock decodes an entire basic block of machine code. The result
// is nil for an empty block. Its instructions' operands share one array,
// each instruction's Args a window of it with no spare capacity.
func DecodeBlock(code []byte) ([]Inst, error) {
	buf := blockScratch.Get().(*decodeBuf)
	defer blockScratch.Put(buf)
	var err error
	buf.insts, buf.args, err = DecodeBlockInto(buf.insts, buf.args, code)
	if err != nil || len(buf.insts) == 0 {
		return nil, err
	}
	out := make([]Inst, len(buf.insts))
	copy(out, buf.insts)
	args := make([]Operand, len(buf.args))
	copy(args, buf.args)
	rebase(out, args)
	return out, nil
}

// DecodeBlockInto decodes an entire basic block of machine code into
// caller buffers, reusing their capacity: the instructions into insts[:0]
// and their operands, one instruction after another, into args[:0]. Each
// returned instruction's Args is a window of the returned args with no
// spare capacity (nil for an instruction without operands), so the
// instructions stay valid only until the buffers are reused. It fails
// exactly as DecodeBlock does, returning both buffers emptied; an empty
// block yields no instructions and no error.
func DecodeBlockInto(insts []Inst, args []Operand, code []byte) ([]Inst, []Operand, error) {
	insts, args = insts[:0], args[:0]
	for off := 0; off < len(code); {
		d := decoder{code: code[off:], args: args}
		in, err := d.decode()
		args = d.args
		if err != nil {
			if de, ok := err.(*DecodeErr); ok {
				de.Offset += off
				de.Index = len(insts)
			}
			return insts[:0], args[:0], err
		}
		insts = append(insts, in)
		off += d.pos
	}
	rebase(insts, args)
	return insts, args, nil
}

// rebase points each instruction's Args at its window of args, which holds
// the instructions' operands in order: the arena may have moved as it grew.
func rebase(insts []Inst, args []Operand) {
	off := 0
	for i := range insts {
		if n := len(insts[i].Args); n > 0 {
			insts[i].Args = args[off : off+n : off+n]
			off += n
		}
	}
}

type decoder struct {
	code []byte
	pos  int
	// args is the operand arena decodeOperands appends to.
	args []Operand

	// prefix state
	pfx66, pfxF2, pfxF3 bool
	rex                 byte
	hasRex              bool
	vex                 bool
	vexR, vexX, vexB    bool
	vexW                bool
	vexL                bool
	vexPP               uint8
	vexMap              uint8
	vexVvvv             byte
	opcodeEnd           int // position just past the opcode bytes
}

func (d *decoder) errf(format string, args ...any) error {
	return &DecodeErr{Offset: d.pos, Msg: fmt.Sprintf(format, args...)}
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, d.errf("truncated instruction")
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) decode() (Inst, error) {
	// Legacy prefixes.
	for {
		b, err := d.byte()
		if err != nil {
			return Inst{}, err
		}
		switch b {
		case 0x66:
			d.pfx66 = true
			continue
		case 0xF2:
			d.pfxF2 = true
			continue
		case 0xF3:
			d.pfxF3 = true
			continue
		}
		if b&0xF0 == 0x40 { // REX
			d.rex, d.hasRex = b, true
			b2, err := d.byte()
			if err != nil {
				return Inst{}, err
			}
			b = b2
			return d.decodeOpcode(b)
		}
		if b == 0xC4 || b == 0xC5 {
			if err := d.decodeVEX(b); err != nil {
				return Inst{}, err
			}
			op, err := d.byte()
			if err != nil {
				return Inst{}, err
			}
			return d.decodeOpcode(op)
		}
		return d.decodeOpcode(b)
	}
}

func (d *decoder) decodeVEX(first byte) error {
	d.vex = true
	b1, err := d.byte()
	if err != nil {
		return err
	}
	if first == 0xC5 {
		d.vexR = b1&0x80 == 0
		d.vexMap = 1
		d.vexVvvv = ^(b1 >> 3) & 0xF
		d.vexL = b1&0x04 != 0
		d.vexPP = b1 & 3
		return nil
	}
	b2, err := d.byte()
	if err != nil {
		return err
	}
	d.vexR = b1&0x80 == 0
	d.vexX = b1&0x40 == 0
	d.vexB = b1&0x20 == 0
	d.vexMap = b1 & 0x1F
	d.vexW = b2&0x80 != 0
	d.vexVvvv = ^(b2 >> 3) & 0xF
	d.vexL = b2&0x04 != 0
	d.vexPP = b2 & 3
	return nil
}

func (d *decoder) decodeOpcode(b byte) (Inst, error) {
	var key decKey
	if d.vex {
		key = decKey{vex: true, vexPP: d.vexPP, vexMap: d.vexMap, opcode: string(b)}
	} else {
		var buf [3]byte
		opc := append(buf[:0], b)
		if b == 0x0F {
			b1, err := d.byte()
			if err != nil {
				return Inst{}, err
			}
			opc = append(opc, b1)
			if b1 == 0x38 || b1 == 0x3A {
				b2, err := d.byte()
				if err != nil {
					return Inst{}, err
				}
				opc = append(opc, b2)
			}
		}
		prefix := byte(0)
		switch {
		case d.pfxF3:
			prefix = 0xF3
		case d.pfxF2:
			prefix = 0xF2
		case d.pfx66:
			prefix = 0x66
		}
		key = decKey{prefix: prefix, opcode: string(opc)}
	}

	cands := decIndex[key]
	if len(cands) == 0 {
		return Inst{}, d.errf("unknown opcode % x (prefix %x, vex %v)", []byte(key.opcode), key.prefix, d.vex)
	}

	// Peek at the ModRM byte, which several candidates may need for
	// disambiguation (/digit forms, reg-vs-mem rm).
	var modrm byte
	hasModRMByte := false
	if d.pos < len(d.code) {
		modrm = d.code[d.pos]
		hasModRMByte = true
	}

	rexW := d.hasRex && d.rex&8 != 0
	for _, idx := range cands {
		f := &Forms[idx]
		e := &f.Enc
		if !d.vex && e.rexW != rexW {
			continue
		}
		if d.vex {
			if e.vexL != d.vexL {
				continue
			}
			if e.vexW != 2 && (e.vexW == 1) != d.vexW {
				continue
			}
			if !hasVvvvRole(f) && d.vexVvvv != 0 {
				continue
			}
		}
		if e.hasModRM {
			if !hasModRMByte {
				continue
			}
			if e.digit >= 0 && (modrm>>3)&7 != byte(e.digit) {
				continue
			}
			// Check rm kind against the pattern.
			rmIsMem := modrm>>6 != 3
			if p, ok := rmPattern(f); ok {
				if rmIsMem && !p.AllowsMem() {
					continue
				}
				if !rmIsMem && !p.AllowsReg() {
					continue
				}
			}
		}
		d.opcodeEnd = d.pos
		return d.decodeOperands(f)
	}
	return Inst{}, d.errf("no matching form for opcode % x", []byte(key.opcode))
}

func hasVvvvRole(f *Form) bool {
	for _, r := range f.Roles {
		if r == roleVvvv {
			return true
		}
	}
	return false
}

func rmPattern(f *Form) (ArgPat, bool) {
	for i, r := range f.Roles {
		if r == roleRM {
			return f.Args[i], true
		}
	}
	return PatNone, false
}

// decodeOperands consumes ModRM/SIB/disp/imm and materializes operands.
func (d *decoder) decodeOperands(f *Form) (Inst, error) {
	e := &f.Enc
	in := Inst{Op: f.Op}
	if len(f.Args) == 0 {
		return in, nil
	}
	base := len(d.args)
	d.args = slices.Grow(d.args, len(f.Args))[:base+len(f.Args)]
	in.Args = d.args[base : base+len(f.Args) : base+len(f.Args)]
	clear(in.Args)

	var regField, rmField byte
	var mod byte
	var memOp Operand
	rmIsMem := false
	if e.hasModRM {
		b, err := d.byte()
		if err != nil {
			return Inst{}, err
		}
		mod = b >> 6
		regField = (b >> 3) & 7
		rmField = b & 7
		if mod != 3 {
			rmIsMem = true
			m, err := d.decodeMem(mod, rmField)
			if err != nil {
				return Inst{}, err
			}
			memOp = MemOp(m)
		}
	}

	var imm int64
	if e.immBytes > 0 {
		if d.pos+int(e.immBytes) > len(d.code) {
			return Inst{}, d.errf("truncated immediate")
		}
		raw := d.code[d.pos : d.pos+int(e.immBytes)]
		d.pos += int(e.immBytes)
		switch e.immBytes {
		case 1:
			imm = int64(int8(raw[0]))
		case 2:
			imm = int64(int16(binary.LittleEndian.Uint16(raw)))
		case 4:
			imm = int64(int32(binary.LittleEndian.Uint32(raw)))
		case 8:
			imm = int64(binary.LittleEndian.Uint64(raw))
		}
	}

	extR, extB := 0, 0
	if d.hasRex {
		if d.rex&4 != 0 {
			extR = 8
		}
		if d.rex&1 != 0 {
			extB = 8
		}
	}
	if d.vex {
		if d.vexR {
			extR = 8
		}
		if d.vexB {
			extB = 8
		}
	}

	for i, role := range f.Roles {
		p := f.Args[i]
		switch role {
		case roleReg:
			in.Args[i] = RegOp(d.regFor(p, int(regField)+extR))
		case roleRM:
			if rmIsMem {
				m := memOp
				m.Mem.Size = uint8(p.MemSize())
				in.Args[i] = m
			} else {
				in.Args[i] = RegOp(d.regFor(p, int(rmField)+extB))
			}
		case roleVvvv:
			in.Args[i] = RegOp(d.regFor(p, int(d.vexVvvv)))
		case roleImm:
			in.Args[i] = ImmOp(imm)
		case rolePlusR:
			base := e.opcode[len(e.opcode)-1]
			num := int(d.lastOpcodeByte()-base) + extB
			in.Args[i] = RegOp(d.regFor(p, num))
		case roleImplied:
			if p == PatCL {
				in.Args[i] = RegOp(CL)
			}
		}
	}
	return in, nil
}

// lastOpcodeByte returns the final opcode byte of the current instruction;
// for +r forms it carries the register number in its low three bits.
func (d *decoder) lastOpcodeByte() byte { return d.code[d.opcodeEnd-1] }

// regFor materializes a register operand of the class demanded by the
// pattern from a hardware register number. 8-bit numbers 4–7 name the
// legacy high-byte registers when no REX prefix is present.
func (d *decoder) regFor(p ArgPat, num int) Reg {
	switch p.regClass() {
	case ClassGP8:
		if !d.hasRex && !d.vex && num >= 4 && num <= 7 {
			return AH + Reg(num-4)
		}
		return GPReg(num, 1)
	case ClassGP16:
		return GPReg(num, 2)
	case ClassGP32:
		return GPReg(num, 4)
	case ClassGP64:
		return GPReg(num, 8)
	case ClassXMM:
		return VecReg(num, 16)
	case ClassYMM:
		return VecReg(num, 32)
	}
	return RegNone
}

func (d *decoder) decodeMem(mod, rmField byte) (Mem, error) {
	var m Mem
	extB, extX := 0, 0
	if d.hasRex {
		if d.rex&1 != 0 {
			extB = 8
		}
		if d.rex&2 != 0 {
			extX = 8
		}
	}
	if d.vex {
		if d.vexB {
			extB = 8
		}
		if d.vexX {
			extX = 8
		}
	}

	dispSize := 0
	switch mod {
	case 1:
		dispSize = 1
	case 2:
		dispSize = 4
	}

	if rmField == 4 { // SIB
		sib, err := d.byte()
		if err != nil {
			return m, err
		}
		scale := sib >> 6
		idx := int((sib>>3)&7) + extX
		base := int(sib&7) + extB
		if idx != 4 { // index=100 with REX.X=0 means none; r12 (12) is valid
			m.Index = GPReg(idx, 8)
			m.Scale = 1 << scale
		}
		if sib&7 == 5 && mod == 0 {
			dispSize = 4 // no base
		} else {
			m.Base = GPReg(base, 8)
		}
	} else if rmField == 5 && mod == 0 {
		m.Base = RIP
		dispSize = 4
	} else {
		m.Base = GPReg(int(rmField)+extB, 8)
	}

	if dispSize > 0 {
		if d.pos+dispSize > len(d.code) {
			return m, d.errf("truncated displacement")
		}
		raw := d.code[d.pos : d.pos+dispSize]
		d.pos += dispSize
		if dispSize == 1 {
			m.Disp = int32(int8(raw[0]))
		} else {
			m.Disp = int32(binary.LittleEndian.Uint32(raw))
		}
	}
	return m, nil
}
