package x86

// Op identifies an instruction mnemonic. Condition-code variants (CMOVcc,
// SETcc, Jcc) are distinct Ops.
type Op uint16

// Opcode constants, grouped by functional class.
const (
	BAD Op = iota

	// Data movement.
	MOV
	MOVZX
	MOVSX
	MOVSXD
	LEA
	PUSH
	POP
	XCHG

	// Integer arithmetic / logic (two-operand read-modify-write).
	ADD
	ADC
	SUB
	SBB
	AND
	OR
	XOR
	CMP
	TEST

	// Unary read-modify-write.
	INC
	DEC
	NEG
	NOT
	BSWAP

	// Multiply / divide (implicit RAX/RDX forms and 2/3-operand imul).
	IMUL
	MUL
	DIV
	IDIV
	CDQ
	CQO

	// Shifts and rotates.
	SHL
	SHR
	SAR
	ROL
	ROR

	// Bit manipulation.
	POPCNT
	LZCNT
	TZCNT
	BSF
	BSR
	BT

	// Conditional moves.
	CMOVE
	CMOVNE
	CMOVL
	CMOVLE
	CMOVG
	CMOVGE
	CMOVB
	CMOVBE
	CMOVA
	CMOVAE
	CMOVS
	CMOVNS

	// Conditional sets.
	SETE
	SETNE
	SETL
	SETLE
	SETG
	SETGE
	SETB
	SETBE
	SETA
	SETAE
	SETS
	SETNS

	NOP

	// Control flow (terminates basic blocks; never appears inside them).
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JBE
	JA
	JAE
	JS
	JNS
	CALL
	RET

	// SSE scalar float.
	MOVSS
	MOVSD
	ADDSS
	ADDSD
	SUBSS
	SUBSD
	MULSS
	MULSD
	DIVSS
	DIVSD
	SQRTSS
	SQRTSD
	MINSS
	MINSD
	MAXSS
	MAXSD
	UCOMISS
	UCOMISD
	CVTSI2SS
	CVTSI2SD
	CVTTSS2SI
	CVTTSD2SI
	CVTSS2SD
	CVTSD2SS

	// SSE data movement.
	MOVD
	MOVQ
	MOVAPS
	MOVUPS
	MOVAPD
	MOVUPD
	MOVDQA
	MOVDQU

	// SSE packed float.
	ADDPS
	ADDPD
	SUBPS
	SUBPD
	MULPS
	MULPD
	DIVPS
	DIVPD
	SQRTPS
	SQRTPD
	MINPS
	MAXPS
	XORPS
	XORPD
	ANDPS
	ANDPD
	ORPS
	ORPD
	SHUFPS
	UNPCKLPS
	CVTDQ2PS
	CVTPS2DQ
	MOVMSKPS

	// SSE packed integer.
	PXOR
	PAND
	PANDN
	POR
	PADDB
	PADDW
	PADDD
	PADDQ
	PSUBB
	PSUBW
	PSUBD
	PSUBQ
	PMULLW
	PMULLD
	PMULUDQ
	PCMPEQB
	PCMPEQD
	PCMPGTB
	PCMPGTD
	PSLLW
	PSLLD
	PSLLQ
	PSRLW
	PSRLD
	PSRLQ
	PSRAW
	PSRAD
	PUNPCKLBW
	PUNPCKLWD
	PUNPCKLDQ
	PUNPCKHDQ
	PSHUFD
	PMOVMSKB

	// AVX (VEX-encoded) moves and float math; 128- and 256-bit forms.
	VMOVSS
	VMOVSD
	VMOVAPS
	VMOVUPS
	VMOVAPD
	VMOVUPD
	VMOVDQA
	VMOVDQU
	VADDSS
	VADDSD
	VSUBSS
	VSUBSD
	VMULSS
	VMULSD
	VDIVSS
	VDIVSD
	VADDPS
	VADDPD
	VSUBPS
	VSUBPD
	VMULPS
	VMULPD
	VDIVPS
	VDIVPD
	VSQRTPS
	VSQRTPD
	VMINPS
	VMAXPS
	VXORPS
	VXORPD
	VANDPS
	VANDPD
	VORPS
	VORPD
	VUCOMISS
	VUCOMISD
	VSHUFPS
	VCVTDQ2PS
	VCVTPS2DQ
	VBROADCASTSS
	VBROADCASTSD
	VEXTRACTF128
	VINSERTF128
	VZEROUPPER

	// AVX2 packed integer (256-bit) and AVX integer (128-bit) forms.
	VPXOR
	VPAND
	VPANDN
	VPOR
	VPADDB
	VPADDW
	VPADDD
	VPADDQ
	VPSUBB
	VPSUBW
	VPSUBD
	VPSUBQ
	VPMULLW
	VPMULLD
	VPCMPEQB
	VPCMPEQD
	VPCMPGTD
	VPSLLD
	VPSLLQ
	VPSRLD
	VPSRLQ
	VPSHUFD
	VPMOVMSKB
	VPBROADCASTB
	VPBROADCASTD
	VPBROADCASTQ
	VEXTRACTI128
	VINSERTI128

	// FMA (Haswell+).
	VFMADD132PS
	VFMADD213PS
	VFMADD231PS
	VFMADD132PD
	VFMADD213PD
	VFMADD231PD
	VFMADD132SS
	VFMADD213SS
	VFMADD231SS
	VFMADD132SD
	VFMADD213SD
	VFMADD231SD
	VFNMADD231PS
	VFNMADD231PD

	NumOps // sentinel
)

// opClass determines the default read/write behaviour of an instruction's
// explicit operands.
type opClass uint8

const (
	clsNone   opClass = iota
	clsMov            // arg0 written, remaining args read (mov, lea, cvt, setcc targets...)
	clsRMW            // arg0 read+written, remaining args read (add, shl, ...)
	clsCmp            // all args read (cmp, test, ucomiss)
	clsUnary          // arg0 read+written (inc, neg, bswap)
	clsSrc            // all args read, results in implicit regs (push, mul, div)
	clsVex3           // arg0 written, args 1..n read (AVX non-destructive 3-op)
	clsFMA            // arg0 read+written, args 1..2 read
	clsBranch         // control flow
)

// flagEffect describes interaction with RFLAGS.
type flagEffect uint8

const (
	flagsNone flagEffect = 0
	flagsW    flagEffect = 1 << iota // writes status flags
	flagsR                           // reads status flags
)

// opInfo is per-mnemonic metadata shared by all encoding forms.
type opInfo struct {
	name  string
	class opClass
	flags flagEffect
	// implicitR/implicitW list architectural registers read/written beyond
	// the explicit operands (e.g. DIV reads and writes RAX and RDX).
	implicitR []Reg
	implicitW []Reg
	// cond is the condition code for CMOVcc/SETcc/Jcc, else condNone.
	cond cond
	// feat is the set of ISA extensions every form of the op needs, and
	// feat256 what its 256-bit forms need on top: AVX2 for the VEX integer
	// ops, whose 128-bit forms are AVX.
	feat, feat256 Feature
	// aligned marks the moves that fault on an address not aligned to
	// their width (movaps/movapd/movdqa and their VEX forms).
	aligned bool
}

// Feature is a set of ISA extensions. An instruction needs one set and a
// core implements one; the core runs the instruction when
// need&^have == 0.
type Feature uint8

const (
	// FeatSSE is the legacy SSE/SSE2 vector baseline of x86-64.
	FeatSSE Feature = 1 << iota
	// FeatAVX covers the VEX-encoded float ops and the 128-bit forms of the
	// VEX integer ops.
	FeatAVX
	// FeatAVX2 covers the 256-bit VEX integer forms, the integer
	// broadcasts and the 128-bit integer lane inserts and extracts.
	FeatAVX2
	// FeatFMA covers the fused multiply-adds.
	FeatFMA
)

// vexFeatures are the extensions whose instructions are VEX-encoded.
const vexFeatures = FeatAVX | FeatAVX2 | FeatFMA

// cond enumerates x86 condition codes used by this subset. The exported
// alias Cond and CondXX constants let other packages evaluate conditions.
type cond uint8

// Cond is the exported name for condition codes.
type Cond = cond

// Exported condition-code constants.
const (
	CondNone = condNone
	CondE    = condE
	CondNE   = condNE
	CondL    = condL
	CondLE   = condLE
	CondG    = condG
	CondGE   = condGE
	CondB    = condB
	CondBE   = condBE
	CondA    = condA
	CondAE   = condAE
	CondS    = condS
	CondNS   = condNS
)

// Cond returns the condition code of CMOVcc/SETcc/Jcc ops, CondNone
// otherwise.
func (op Op) Cond() Cond { return opInfos[op].cond }

const (
	condNone cond = iota
	condE
	condNE
	condL
	condLE
	condG
	condGE
	condB
	condBE
	condA
	condAE
	condS
	condNS
)

var opInfos = [NumOps]opInfo{
	BAD: {name: "(bad)"},

	MOV:    {name: "mov", class: clsMov},
	MOVZX:  {name: "movzx", class: clsMov},
	MOVSX:  {name: "movsx", class: clsMov},
	MOVSXD: {name: "movsxd", class: clsMov},
	LEA:    {name: "lea", class: clsMov},
	PUSH:   {name: "push", class: clsSrc, implicitR: []Reg{RSP}, implicitW: []Reg{RSP}},
	POP:    {name: "pop", class: clsMov, implicitR: []Reg{RSP}, implicitW: []Reg{RSP}},
	XCHG:   {name: "xchg", class: clsRMW},

	ADD:  {name: "add", class: clsRMW, flags: flagsW},
	ADC:  {name: "adc", class: clsRMW, flags: flagsW | flagsR},
	SUB:  {name: "sub", class: clsRMW, flags: flagsW},
	SBB:  {name: "sbb", class: clsRMW, flags: flagsW | flagsR},
	AND:  {name: "and", class: clsRMW, flags: flagsW},
	OR:   {name: "or", class: clsRMW, flags: flagsW},
	XOR:  {name: "xor", class: clsRMW, flags: flagsW},
	CMP:  {name: "cmp", class: clsCmp, flags: flagsW},
	TEST: {name: "test", class: clsCmp, flags: flagsW},

	INC:   {name: "inc", class: clsUnary, flags: flagsW},
	DEC:   {name: "dec", class: clsUnary, flags: flagsW},
	NEG:   {name: "neg", class: clsUnary, flags: flagsW},
	NOT:   {name: "not", class: clsUnary},
	BSWAP: {name: "bswap", class: clsUnary},

	IMUL: {name: "imul", class: clsRMW, flags: flagsW},
	MUL:  {name: "mul", class: clsSrc, flags: flagsW, implicitR: []Reg{RAX}, implicitW: []Reg{RAX, RDX}},
	DIV:  {name: "div", class: clsSrc, flags: flagsW, implicitR: []Reg{RAX, RDX}, implicitW: []Reg{RAX, RDX}},
	IDIV: {name: "idiv", class: clsSrc, flags: flagsW, implicitR: []Reg{RAX, RDX}, implicitW: []Reg{RAX, RDX}},
	CDQ:  {name: "cdq", class: clsNone, implicitR: []Reg{RAX}, implicitW: []Reg{RDX}},
	CQO:  {name: "cqo", class: clsNone, implicitR: []Reg{RAX}, implicitW: []Reg{RDX}},

	SHL: {name: "shl", class: clsRMW, flags: flagsW},
	SHR: {name: "shr", class: clsRMW, flags: flagsW},
	SAR: {name: "sar", class: clsRMW, flags: flagsW},
	ROL: {name: "rol", class: clsRMW, flags: flagsW},
	ROR: {name: "ror", class: clsRMW, flags: flagsW},

	POPCNT: {name: "popcnt", class: clsMov, flags: flagsW},
	LZCNT:  {name: "lzcnt", class: clsMov, flags: flagsW},
	TZCNT:  {name: "tzcnt", class: clsMov, flags: flagsW},
	BSF:    {name: "bsf", class: clsMov, flags: flagsW},
	BSR:    {name: "bsr", class: clsMov, flags: flagsW},
	BT:     {name: "bt", class: clsCmp, flags: flagsW},

	CMOVE:  {name: "cmove", class: clsRMW, flags: flagsR, cond: condE},
	CMOVNE: {name: "cmovne", class: clsRMW, flags: flagsR, cond: condNE},
	CMOVL:  {name: "cmovl", class: clsRMW, flags: flagsR, cond: condL},
	CMOVLE: {name: "cmovle", class: clsRMW, flags: flagsR, cond: condLE},
	CMOVG:  {name: "cmovg", class: clsRMW, flags: flagsR, cond: condG},
	CMOVGE: {name: "cmovge", class: clsRMW, flags: flagsR, cond: condGE},
	CMOVB:  {name: "cmovb", class: clsRMW, flags: flagsR, cond: condB},
	CMOVBE: {name: "cmovbe", class: clsRMW, flags: flagsR, cond: condBE},
	CMOVA:  {name: "cmova", class: clsRMW, flags: flagsR, cond: condA},
	CMOVAE: {name: "cmovae", class: clsRMW, flags: flagsR, cond: condAE},
	CMOVS:  {name: "cmovs", class: clsRMW, flags: flagsR, cond: condS},
	CMOVNS: {name: "cmovns", class: clsRMW, flags: flagsR, cond: condNS},

	SETE:  {name: "sete", class: clsMov, flags: flagsR, cond: condE},
	SETNE: {name: "setne", class: clsMov, flags: flagsR, cond: condNE},
	SETL:  {name: "setl", class: clsMov, flags: flagsR, cond: condL},
	SETLE: {name: "setle", class: clsMov, flags: flagsR, cond: condLE},
	SETG:  {name: "setg", class: clsMov, flags: flagsR, cond: condG},
	SETGE: {name: "setge", class: clsMov, flags: flagsR, cond: condGE},
	SETB:  {name: "setb", class: clsMov, flags: flagsR, cond: condB},
	SETBE: {name: "setbe", class: clsMov, flags: flagsR, cond: condBE},
	SETA:  {name: "seta", class: clsMov, flags: flagsR, cond: condA},
	SETAE: {name: "setae", class: clsMov, flags: flagsR, cond: condAE},
	SETS:  {name: "sets", class: clsMov, flags: flagsR, cond: condS},
	SETNS: {name: "setns", class: clsMov, flags: flagsR, cond: condNS},

	NOP: {name: "nop", class: clsNone},

	JMP:  {name: "jmp", class: clsBranch},
	JE:   {name: "je", class: clsBranch, flags: flagsR, cond: condE},
	JNE:  {name: "jne", class: clsBranch, flags: flagsR, cond: condNE},
	JL:   {name: "jl", class: clsBranch, flags: flagsR, cond: condL},
	JLE:  {name: "jle", class: clsBranch, flags: flagsR, cond: condLE},
	JG:   {name: "jg", class: clsBranch, flags: flagsR, cond: condG},
	JGE:  {name: "jge", class: clsBranch, flags: flagsR, cond: condGE},
	JB:   {name: "jb", class: clsBranch, flags: flagsR, cond: condB},
	JBE:  {name: "jbe", class: clsBranch, flags: flagsR, cond: condBE},
	JA:   {name: "ja", class: clsBranch, flags: flagsR, cond: condA},
	JAE:  {name: "jae", class: clsBranch, flags: flagsR, cond: condAE},
	JS:   {name: "js", class: clsBranch, flags: flagsR, cond: condS},
	JNS:  {name: "jns", class: clsBranch, flags: flagsR, cond: condNS},
	CALL: {name: "call", class: clsBranch, implicitR: []Reg{RSP}, implicitW: []Reg{RSP}},
	RET:  {name: "ret", class: clsBranch, implicitR: []Reg{RSP}, implicitW: []Reg{RSP}},

	MOVSS:     {name: "movss", class: clsMov, feat: FeatSSE},
	MOVSD:     {name: "movsd", class: clsMov, feat: FeatSSE},
	ADDSS:     {name: "addss", class: clsRMW, feat: FeatSSE},
	ADDSD:     {name: "addsd", class: clsRMW, feat: FeatSSE},
	SUBSS:     {name: "subss", class: clsRMW, feat: FeatSSE},
	SUBSD:     {name: "subsd", class: clsRMW, feat: FeatSSE},
	MULSS:     {name: "mulss", class: clsRMW, feat: FeatSSE},
	MULSD:     {name: "mulsd", class: clsRMW, feat: FeatSSE},
	DIVSS:     {name: "divss", class: clsRMW, feat: FeatSSE},
	DIVSD:     {name: "divsd", class: clsRMW, feat: FeatSSE},
	SQRTSS:    {name: "sqrtss", class: clsMov, feat: FeatSSE},
	SQRTSD:    {name: "sqrtsd", class: clsMov, feat: FeatSSE},
	MINSS:     {name: "minss", class: clsRMW, feat: FeatSSE},
	MINSD:     {name: "minsd", class: clsRMW, feat: FeatSSE},
	MAXSS:     {name: "maxss", class: clsRMW, feat: FeatSSE},
	MAXSD:     {name: "maxsd", class: clsRMW, feat: FeatSSE},
	UCOMISS:   {name: "ucomiss", class: clsCmp, flags: flagsW, feat: FeatSSE},
	UCOMISD:   {name: "ucomisd", class: clsCmp, flags: flagsW, feat: FeatSSE},
	CVTSI2SS:  {name: "cvtsi2ss", class: clsMov, feat: FeatSSE},
	CVTSI2SD:  {name: "cvtsi2sd", class: clsMov, feat: FeatSSE},
	CVTTSS2SI: {name: "cvttss2si", class: clsMov, feat: FeatSSE},
	CVTTSD2SI: {name: "cvttsd2si", class: clsMov, feat: FeatSSE},
	CVTSS2SD:  {name: "cvtss2sd", class: clsMov, feat: FeatSSE},
	CVTSD2SS:  {name: "cvtsd2ss", class: clsMov, feat: FeatSSE},

	MOVD:   {name: "movd", class: clsMov, feat: FeatSSE},
	MOVQ:   {name: "movq", class: clsMov, feat: FeatSSE},
	MOVAPS: {name: "movaps", class: clsMov, feat: FeatSSE, aligned: true},
	MOVUPS: {name: "movups", class: clsMov, feat: FeatSSE},
	MOVAPD: {name: "movapd", class: clsMov, feat: FeatSSE, aligned: true},
	MOVUPD: {name: "movupd", class: clsMov, feat: FeatSSE},
	MOVDQA: {name: "movdqa", class: clsMov, feat: FeatSSE, aligned: true},
	MOVDQU: {name: "movdqu", class: clsMov, feat: FeatSSE},

	ADDPS:    {name: "addps", class: clsRMW, feat: FeatSSE},
	ADDPD:    {name: "addpd", class: clsRMW, feat: FeatSSE},
	SUBPS:    {name: "subps", class: clsRMW, feat: FeatSSE},
	SUBPD:    {name: "subpd", class: clsRMW, feat: FeatSSE},
	MULPS:    {name: "mulps", class: clsRMW, feat: FeatSSE},
	MULPD:    {name: "mulpd", class: clsRMW, feat: FeatSSE},
	DIVPS:    {name: "divps", class: clsRMW, feat: FeatSSE},
	DIVPD:    {name: "divpd", class: clsRMW, feat: FeatSSE},
	SQRTPS:   {name: "sqrtps", class: clsMov, feat: FeatSSE},
	SQRTPD:   {name: "sqrtpd", class: clsMov, feat: FeatSSE},
	MINPS:    {name: "minps", class: clsRMW, feat: FeatSSE},
	MAXPS:    {name: "maxps", class: clsRMW, feat: FeatSSE},
	XORPS:    {name: "xorps", class: clsRMW, feat: FeatSSE},
	XORPD:    {name: "xorpd", class: clsRMW, feat: FeatSSE},
	ANDPS:    {name: "andps", class: clsRMW, feat: FeatSSE},
	ANDPD:    {name: "andpd", class: clsRMW, feat: FeatSSE},
	ORPS:     {name: "orps", class: clsRMW, feat: FeatSSE},
	ORPD:     {name: "orpd", class: clsRMW, feat: FeatSSE},
	SHUFPS:   {name: "shufps", class: clsRMW, feat: FeatSSE},
	UNPCKLPS: {name: "unpcklps", class: clsRMW, feat: FeatSSE},
	CVTDQ2PS: {name: "cvtdq2ps", class: clsMov, feat: FeatSSE},
	CVTPS2DQ: {name: "cvtps2dq", class: clsMov, feat: FeatSSE},
	MOVMSKPS: {name: "movmskps", class: clsMov, feat: FeatSSE},

	PXOR:      {name: "pxor", class: clsRMW, feat: FeatSSE},
	PAND:      {name: "pand", class: clsRMW, feat: FeatSSE},
	PANDN:     {name: "pandn", class: clsRMW, feat: FeatSSE},
	POR:       {name: "por", class: clsRMW, feat: FeatSSE},
	PADDB:     {name: "paddb", class: clsRMW, feat: FeatSSE},
	PADDW:     {name: "paddw", class: clsRMW, feat: FeatSSE},
	PADDD:     {name: "paddd", class: clsRMW, feat: FeatSSE},
	PADDQ:     {name: "paddq", class: clsRMW, feat: FeatSSE},
	PSUBB:     {name: "psubb", class: clsRMW, feat: FeatSSE},
	PSUBW:     {name: "psubw", class: clsRMW, feat: FeatSSE},
	PSUBD:     {name: "psubd", class: clsRMW, feat: FeatSSE},
	PSUBQ:     {name: "psubq", class: clsRMW, feat: FeatSSE},
	PMULLW:    {name: "pmullw", class: clsRMW, feat: FeatSSE},
	PMULLD:    {name: "pmulld", class: clsRMW, feat: FeatSSE},
	PMULUDQ:   {name: "pmuludq", class: clsRMW, feat: FeatSSE},
	PCMPEQB:   {name: "pcmpeqb", class: clsRMW, feat: FeatSSE},
	PCMPEQD:   {name: "pcmpeqd", class: clsRMW, feat: FeatSSE},
	PCMPGTB:   {name: "pcmpgtb", class: clsRMW, feat: FeatSSE},
	PCMPGTD:   {name: "pcmpgtd", class: clsRMW, feat: FeatSSE},
	PSLLW:     {name: "psllw", class: clsRMW, feat: FeatSSE},
	PSLLD:     {name: "pslld", class: clsRMW, feat: FeatSSE},
	PSLLQ:     {name: "psllq", class: clsRMW, feat: FeatSSE},
	PSRLW:     {name: "psrlw", class: clsRMW, feat: FeatSSE},
	PSRLD:     {name: "psrld", class: clsRMW, feat: FeatSSE},
	PSRLQ:     {name: "psrlq", class: clsRMW, feat: FeatSSE},
	PSRAW:     {name: "psraw", class: clsRMW, feat: FeatSSE},
	PSRAD:     {name: "psrad", class: clsRMW, feat: FeatSSE},
	PUNPCKLBW: {name: "punpcklbw", class: clsRMW, feat: FeatSSE},
	PUNPCKLWD: {name: "punpcklwd", class: clsRMW, feat: FeatSSE},
	PUNPCKLDQ: {name: "punpckldq", class: clsRMW, feat: FeatSSE},
	PUNPCKHDQ: {name: "punpckhdq", class: clsRMW, feat: FeatSSE},
	PSHUFD:    {name: "pshufd", class: clsMov, feat: FeatSSE},
	PMOVMSKB:  {name: "pmovmskb", class: clsMov, feat: FeatSSE},

	VMOVSS:       {name: "vmovss", class: clsVex3, feat: FeatAVX},
	VMOVSD:       {name: "vmovsd", class: clsVex3, feat: FeatAVX},
	VMOVAPS:      {name: "vmovaps", class: clsMov, feat: FeatAVX, aligned: true},
	VMOVUPS:      {name: "vmovups", class: clsMov, feat: FeatAVX},
	VMOVAPD:      {name: "vmovapd", class: clsMov, feat: FeatAVX, aligned: true},
	VMOVUPD:      {name: "vmovupd", class: clsMov, feat: FeatAVX},
	VMOVDQA:      {name: "vmovdqa", class: clsMov, feat: FeatAVX, aligned: true},
	VMOVDQU:      {name: "vmovdqu", class: clsMov, feat: FeatAVX},
	VADDSS:       {name: "vaddss", class: clsVex3, feat: FeatAVX},
	VADDSD:       {name: "vaddsd", class: clsVex3, feat: FeatAVX},
	VSUBSS:       {name: "vsubss", class: clsVex3, feat: FeatAVX},
	VSUBSD:       {name: "vsubsd", class: clsVex3, feat: FeatAVX},
	VMULSS:       {name: "vmulss", class: clsVex3, feat: FeatAVX},
	VMULSD:       {name: "vmulsd", class: clsVex3, feat: FeatAVX},
	VDIVSS:       {name: "vdivss", class: clsVex3, feat: FeatAVX},
	VDIVSD:       {name: "vdivsd", class: clsVex3, feat: FeatAVX},
	VADDPS:       {name: "vaddps", class: clsVex3, feat: FeatAVX},
	VADDPD:       {name: "vaddpd", class: clsVex3, feat: FeatAVX},
	VSUBPS:       {name: "vsubps", class: clsVex3, feat: FeatAVX},
	VSUBPD:       {name: "vsubpd", class: clsVex3, feat: FeatAVX},
	VMULPS:       {name: "vmulps", class: clsVex3, feat: FeatAVX},
	VMULPD:       {name: "vmulpd", class: clsVex3, feat: FeatAVX},
	VDIVPS:       {name: "vdivps", class: clsVex3, feat: FeatAVX},
	VDIVPD:       {name: "vdivpd", class: clsVex3, feat: FeatAVX},
	VSQRTPS:      {name: "vsqrtps", class: clsMov, feat: FeatAVX},
	VSQRTPD:      {name: "vsqrtpd", class: clsMov, feat: FeatAVX},
	VMINPS:       {name: "vminps", class: clsVex3, feat: FeatAVX},
	VMAXPS:       {name: "vmaxps", class: clsVex3, feat: FeatAVX},
	VXORPS:       {name: "vxorps", class: clsVex3, feat: FeatAVX},
	VXORPD:       {name: "vxorpd", class: clsVex3, feat: FeatAVX},
	VANDPS:       {name: "vandps", class: clsVex3, feat: FeatAVX},
	VANDPD:       {name: "vandpd", class: clsVex3, feat: FeatAVX},
	VORPS:        {name: "vorps", class: clsVex3, feat: FeatAVX},
	VORPD:        {name: "vorpd", class: clsVex3, feat: FeatAVX},
	VUCOMISS:     {name: "vucomiss", class: clsCmp, flags: flagsW, feat: FeatAVX},
	VUCOMISD:     {name: "vucomisd", class: clsCmp, flags: flagsW, feat: FeatAVX},
	VSHUFPS:      {name: "vshufps", class: clsVex3, feat: FeatAVX},
	VCVTDQ2PS:    {name: "vcvtdq2ps", class: clsMov, feat: FeatAVX},
	VCVTPS2DQ:    {name: "vcvtps2dq", class: clsMov, feat: FeatAVX},
	VBROADCASTSS: {name: "vbroadcastss", class: clsMov, feat: FeatAVX},
	VBROADCASTSD: {name: "vbroadcastsd", class: clsMov, feat: FeatAVX},
	VEXTRACTF128: {name: "vextractf128", class: clsMov, feat: FeatAVX},
	VINSERTF128:  {name: "vinsertf128", class: clsVex3, feat: FeatAVX},
	VZEROUPPER:   {name: "vzeroupper", class: clsNone, feat: FeatAVX},

	VPXOR:        {name: "vpxor", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPAND:        {name: "vpand", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPANDN:       {name: "vpandn", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPOR:         {name: "vpor", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPADDB:       {name: "vpaddb", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPADDW:       {name: "vpaddw", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPADDD:       {name: "vpaddd", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPADDQ:       {name: "vpaddq", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSUBB:       {name: "vpsubb", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSUBW:       {name: "vpsubw", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSUBD:       {name: "vpsubd", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSUBQ:       {name: "vpsubq", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPMULLW:      {name: "vpmullw", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPMULLD:      {name: "vpmulld", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPCMPEQB:     {name: "vpcmpeqb", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPCMPEQD:     {name: "vpcmpeqd", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPCMPGTD:     {name: "vpcmpgtd", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSLLD:       {name: "vpslld", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSLLQ:       {name: "vpsllq", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSRLD:       {name: "vpsrld", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSRLQ:       {name: "vpsrlq", class: clsVex3, feat: FeatAVX, feat256: FeatAVX2},
	VPSHUFD:      {name: "vpshufd", class: clsMov, feat: FeatAVX, feat256: FeatAVX2},
	VPMOVMSKB:    {name: "vpmovmskb", class: clsMov, feat: FeatAVX, feat256: FeatAVX2},
	VPBROADCASTB: {name: "vpbroadcastb", class: clsMov, feat: FeatAVX2},
	VPBROADCASTD: {name: "vpbroadcastd", class: clsMov, feat: FeatAVX2},
	VPBROADCASTQ: {name: "vpbroadcastq", class: clsMov, feat: FeatAVX2},
	VEXTRACTI128: {name: "vextracti128", class: clsMov, feat: FeatAVX2},
	VINSERTI128:  {name: "vinserti128", class: clsVex3, feat: FeatAVX2},

	VFMADD132PS:  {name: "vfmadd132ps", class: clsFMA, feat: FeatFMA},
	VFMADD213PS:  {name: "vfmadd213ps", class: clsFMA, feat: FeatFMA},
	VFMADD231PS:  {name: "vfmadd231ps", class: clsFMA, feat: FeatFMA},
	VFMADD132PD:  {name: "vfmadd132pd", class: clsFMA, feat: FeatFMA},
	VFMADD213PD:  {name: "vfmadd213pd", class: clsFMA, feat: FeatFMA},
	VFMADD231PD:  {name: "vfmadd231pd", class: clsFMA, feat: FeatFMA},
	VFMADD132SS:  {name: "vfmadd132ss", class: clsFMA, feat: FeatFMA},
	VFMADD213SS:  {name: "vfmadd213ss", class: clsFMA, feat: FeatFMA},
	VFMADD231SS:  {name: "vfmadd231ss", class: clsFMA, feat: FeatFMA},
	VFMADD132SD:  {name: "vfmadd132sd", class: clsFMA, feat: FeatFMA},
	VFMADD213SD:  {name: "vfmadd213sd", class: clsFMA, feat: FeatFMA},
	VFMADD231SD:  {name: "vfmadd231sd", class: clsFMA, feat: FeatFMA},
	VFNMADD231PS: {name: "vfnmadd231ps", class: clsFMA, feat: FeatFMA},
	VFNMADD231PD: {name: "vfnmadd231pd", class: clsFMA, feat: FeatFMA},
}

// String returns the lowercase mnemonic.
func (op Op) String() string {
	if op < NumOps && opInfos[op].name != "" {
		return opInfos[op].name
	}
	return "op?"
}

// Info accessors used by other packages.

// Cond returns the condition code of a conditional op, or condNone.
func (op Op) info() *opInfo { return &opInfos[op] }

// WritesFlags reports whether the instruction writes the status flags.
func (op Op) WritesFlags() bool { return op < NumOps && opInfos[op].flags&flagsW != 0 }

// ReadsFlags reports whether the instruction reads the status flags.
func (op Op) ReadsFlags() bool { return op < NumOps && opInfos[op].flags&flagsR != 0 }

// ImplicitReads returns implicitly-read architectural registers.
func (op Op) ImplicitReads() []Reg { return opInfos[op].implicitR }

// ImplicitWrites returns implicitly-written architectural registers.
func (op Op) ImplicitWrites() []Reg { return opInfos[op].implicitW }

// IsBranch reports whether the op is a control-flow instruction (which
// terminates a basic block and never appears inside one).
func (op Op) IsBranch() bool { return op < NumOps && opInfos[op].class == clsBranch }

// Features returns the ISA extensions every form of the op needs (for the
// instruction-level set, which adds the 256-bit rule, see Inst.Features).
func (op Op) Features() Feature {
	if op >= NumOps {
		return 0
	}
	return opInfos[op].feat
}

// IsVex reports whether the op is VEX-encoded (AVX/AVX2/FMA).
func (op Op) IsVex() bool { return op.Features()&vexFeatures != 0 }

// IsCMov reports whether the op is a conditional move: a conditional
// read-modify-write, which keeps the destination when the condition fails.
func (op Op) IsCMov() bool { return opInfos[op].cond != condNone && opInfos[op].class == clsRMW }

// IsSetCC reports whether the op is a conditional set: a conditional
// write of 0 or 1.
func (op Op) IsSetCC() bool { return opInfos[op].cond != condNone && opInfos[op].class == clsMov }

// IsAlignedMove reports whether the op is a move that faults unless its
// memory operand is aligned to the operation width.
func (op Op) IsAlignedMove() bool { return op < NumOps && opInfos[op].aligned }

// opByName maps mnemonics to Ops.
var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(1); op < NumOps; op++ {
		if opInfos[op].name != "" {
			m[opInfos[op].name] = op
		}
	}
	// Common aliases.
	m["cmovz"] = CMOVE
	m["cmovnz"] = CMOVNE
	m["cmovnae"] = CMOVB
	m["cmovnb"] = CMOVAE
	m["setz"] = SETE
	m["setnz"] = SETNE
	m["jz"] = JE
	m["jnz"] = JNE
	m["sal"] = SHL
	return m
}()

// OpByName looks up a mnemonic (lowercase); BAD if unknown.
func OpByName(name string) Op { return opByName[name] }
