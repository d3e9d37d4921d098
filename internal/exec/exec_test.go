package exec

import (
	"errors"
	"math"
	"testing"

	"bhive/internal/vm"
	"bhive/internal/x86"
)

func mustParse(t *testing.T, text string) []x86.Inst {
	t.Helper()
	insts, err := x86.Parse(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return insts
}

// mappedRunner returns a runner whose address space maps the page at base.
func mappedRunner(base uint64) *Runner {
	as := vm.New()
	page := as.NewPhysPage()
	page.Fill(0x12345600)
	as.Map(base, page)
	r := NewRunner(as)
	return r
}

func TestGPRMergeSemantics(t *testing.T) {
	s := &State{}
	s.WriteGPR(x86.RAX, 0x1122334455667788)
	if s.ReadGPR(x86.EAX) != 0x55667788 {
		t.Fatal("32-bit read")
	}
	s.WriteGPR(x86.AL, 0xAB)
	if s.GPR[0] != 0x11223344556677AB {
		t.Fatalf("8-bit merge: %#x", s.GPR[0])
	}
	s.WriteGPR(x86.AH, 0xCD)
	if s.GPR[0] != 0x112233445566CDAB {
		t.Fatalf("high-byte merge: %#x", s.GPR[0])
	}
	if s.ReadGPR(x86.AH) != 0xCD {
		t.Fatal("high byte read")
	}
	s.WriteGPR(x86.EAX, 1)
	if s.GPR[0] != 1 {
		t.Fatal("32-bit write must zero-extend")
	}
	s.WriteGPR(x86.AX, 0xFFFF)
	if s.GPR[0] != 0xFFFF {
		t.Fatal("16-bit write merges")
	}
}

func TestALUFlags(t *testing.T) {
	r := NewRunner(vm.New())
	r.State.WriteGPR(x86.RAX, 0xFFFFFFFFFFFFFFFF)
	r.State.WriteGPR(x86.RBX, 1)
	if err := r.Run(mustParse(t, "add rax, rbx"), nil); err != nil {
		t.Fatal(err)
	}
	if r.State.GPR[0] != 0 || !r.State.ZF || !r.State.CF || r.State.OF {
		t.Fatalf("add overflow flags: zf=%v cf=%v of=%v", r.State.ZF, r.State.CF, r.State.OF)
	}

	r.State.WriteGPR(x86.RCX, 5)
	r.State.WriteGPR(x86.RDX, 7)
	if err := r.Run(mustParse(t, "cmp rcx, rdx"), nil); err != nil {
		t.Fatal(err)
	}
	if !r.State.CF || r.State.ZF {
		t.Fatal("cmp 5,7 sets CF (borrow)")
	}
	if !r.State.Cond(x86.CondB) || r.State.Cond(x86.CondAE) {
		t.Fatal("condition evaluation")
	}

	// Signed overflow: 0x7FFFFFFF + 1.
	r.State.WriteGPR(x86.EAX, 0x7FFFFFFF)
	r.State.WriteGPR(x86.EBX, 1)
	if err := r.Run(mustParse(t, "add eax, ebx"), nil); err != nil {
		t.Fatal(err)
	}
	if !r.State.OF || r.State.CF {
		t.Fatal("signed overflow must set OF only")
	}
}

func TestIncPreservesCF(t *testing.T) {
	r := NewRunner(vm.New())
	r.State.CF = true
	if err := r.Run(mustParse(t, "inc rax"), nil); err != nil {
		t.Fatal(err)
	}
	if !r.State.CF {
		t.Fatal("inc must preserve CF")
	}
}

func TestDivSemantics(t *testing.T) {
	r := NewRunner(vm.New())
	r.State.WriteGPR(x86.EAX, 100)
	r.State.WriteGPR(x86.EDX, 0)
	r.State.WriteGPR(x86.ECX, 7)
	if err := r.Run(mustParse(t, "div ecx"), nil); err != nil {
		t.Fatal(err)
	}
	if r.State.ReadGPR(x86.EAX) != 14 || r.State.ReadGPR(x86.EDX) != 2 {
		t.Fatalf("100/7: q=%d r=%d", r.State.ReadGPR(x86.EAX), r.State.ReadGPR(x86.EDX))
	}

	// Division by zero faults.
	r2 := NewRunner(vm.New())
	err := r2.Run(mustParse(t, "div ecx"), nil)
	if _, ok := err.(DivideError); !ok {
		t.Fatalf("expected #DE, got %v", err)
	}

	// Quotient overflow faults: edx:eax / 1 with edx != 0.
	r3 := NewRunner(vm.New())
	r3.State.WriteGPR(x86.EDX, 5)
	r3.State.WriteGPR(x86.ECX, 1)
	err = r3.Run(mustParse(t, "div ecx"), nil)
	if _, ok := err.(DivideError); !ok {
		t.Fatalf("expected overflow #DE, got %v", err)
	}

	// Signed division.
	r4 := NewRunner(vm.New())
	r4.State.WriteGPR(x86.RAX, uint64(0xFFFFFFFFFFFFFF9C)) // -100
	r4.State.WriteGPR(x86.RDX, ^uint64(0))                 // sign extension
	r4.State.WriteGPR(x86.RCX, 7)
	if err := r4.Run(mustParse(t, "idiv rcx"), nil); err != nil {
		t.Fatal(err)
	}
	if int64(r4.State.GPR[0]) != -14 || int64(r4.State.GPR[2]) != -2 {
		t.Fatalf("-100/7: q=%d r=%d", int64(r4.State.GPR[0]), int64(r4.State.GPR[2]))
	}
}

func TestMemoryFaultReported(t *testing.T) {
	r := NewRunner(vm.New()) // nothing mapped
	r.State.WriteGPR(x86.RDI, 0x7000)
	err := r.Run(mustParse(t, "mov rax, qword ptr [rdi]"), nil)
	f, ok := err.(*vm.Fault)
	if !ok {
		t.Fatalf("expected page fault, got %v", err)
	}
	if f.Addr != 0x7000 {
		t.Fatalf("fault address %#x", f.Addr)
	}
}

func TestLoadStoreRoundtrip(t *testing.T) {
	base := uint64(0x10000)
	r := mappedRunner(base)
	r.Record = true
	r.State.WriteGPR(x86.RDI, base)
	r.State.WriteGPR(x86.RBX, 0xDEADBEEFCAFEF00D)
	prog := mustParse(t, `mov qword ptr [rdi+8], rbx
		mov rax, qword ptr [rdi+8]`)
	if err := r.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	if r.State.GPR[0] != 0xDEADBEEFCAFEF00D {
		t.Fatalf("got %#x", r.State.GPR[0])
	}
	if len(r.Trace) != 2 || r.Trace[0].Store == nil || r.Trace[1].Load == nil {
		t.Fatal("trace must record the store and the load")
	}
	if r.Trace[0].Store.Addr != base+8 || r.Trace[0].Store.Size != 8 {
		t.Fatalf("store access: %+v", r.Trace[0].Store)
	}
}

// TestCRCBlockDataflow runs the paper's Gzip CRC block and checks the
// pointer value flow: al is xored with a loaded byte, zero-extended, and
// used to index the lookup table.
func TestCRCBlockDataflow(t *testing.T) {
	base := uint64(0x200000)
	as := vm.New()
	page := as.NewPhysPage()
	page.Fill(0x12345600)
	// Map the buffer page and the lookup-table pages.
	as.Map(base, page)
	r := NewRunner(as)
	r.Record = true
	r.State.InitRegisters(base)

	block := mustParse(t, `add $1, %rdi
		mov %edx, %eax
		shr $8, %rdx
		xorb -1(%rdi), %al
		movzbl %al, %eax
		xor 0x4110a(, %rax, 8), %rdx
		cmp %rcx, %rdi`)

	err := r.Run(block, nil)
	// The table access at 0x4110a(,%rax,8) is unmapped: expect a fault at
	// that address so a monitor could map it.
	f, ok := err.(*vm.Fault)
	if !ok {
		t.Fatalf("expected fault on lookup table, got %v", err)
	}
	if f.Addr < 0x4110a {
		t.Fatalf("fault at %#x", f.Addr)
	}

	// Map the faulting page and re-run from scratch: should now complete.
	as.Map(f.Addr, page)
	r2 := NewRunner(as)
	r2.Record = true
	r2.State.InitRegisters(base)
	if err := r2.Run(block, nil); err != nil {
		t.Fatalf("after mapping: %v", err)
	}
	if got := len(r2.Trace); got != 7 {
		t.Fatalf("trace length %d", got)
	}
	if r2.Trace[3].Load == nil || r2.Trace[5].Load == nil {
		t.Fatal("loads missing from trace")
	}
}

func TestSubnormalDetectionAndFTZ(t *testing.T) {
	mk := func(ftz, daz bool) (*Runner, []x86.Inst) {
		r := NewRunner(vm.New())
		r.Record = true
		r.State.FTZ, r.State.DAZ = ftz, daz
		var v [32]byte
		setF32(&v, 0, math.Float32frombits(1)) // smallest subnormal
		r.State.Vec[1] = v
		var w [32]byte
		setF32(&w, 0, 1.0)
		r.State.Vec[2] = w
		return r, mustParse(t, "addss xmm2, xmm1")
	}

	r, prog := mk(false, false)
	if err := r.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	if !r.Trace[0].Subnormal {
		t.Fatal("subnormal input must be flagged without DAZ")
	}

	r2, prog2 := mk(true, true)
	if err := r2.Run(prog2, nil); err != nil {
		t.Fatal(err)
	}
	if r2.Trace[0].Subnormal {
		t.Fatal("DAZ flushes inputs; no subnormal penalty")
	}

	// Subnormal produced by the op itself (underflow).
	r3 := NewRunner(vm.New())
	r3.Record = true
	var tiny [32]byte
	setF32(&tiny, 0, math.Float32frombits(0x00800000)) // smallest normal
	r3.State.Vec[1] = tiny
	var half [32]byte
	setF32(&half, 0, 0.25)
	r3.State.Vec[2] = half
	prog3 := mustParse(t, "mulss xmm1, xmm2")
	if err := r3.Run(prog3, nil); err != nil {
		t.Fatal(err)
	}
	if !r3.Trace[0].Subnormal {
		t.Fatal("underflowing multiply must be flagged")
	}
}

func TestVectorALUAndZeroUpper(t *testing.T) {
	r := NewRunner(vm.New())
	for i := 0; i < 32; i++ {
		r.State.Vec[1][i] = byte(i)
		r.State.Vec[2][i] = 1
	}
	if err := r.Run(mustParse(t, "paddb xmm1, xmm2"), nil); err != nil {
		t.Fatal(err)
	}
	if r.State.Vec[1][0] != 1 || r.State.Vec[1][15] != 16 {
		t.Fatal("paddb lanes")
	}
	if r.State.Vec[1][16] != 16 {
		t.Fatal("legacy SSE must preserve the upper half")
	}

	// VEX 128 zeroes the upper half.
	if err := r.Run(mustParse(t, "vpaddb %xmm2, %xmm2, %xmm1"), nil); err != nil {
		t.Fatal(err)
	}
	if r.State.Vec[1][16] != 0 {
		t.Fatal("VEX-128 must zero the upper half")
	}
}

func TestUcomissFlags(t *testing.T) {
	r := NewRunner(vm.New())
	setF32(&r.State.Vec[0], 0, 1.0)
	setF32(&r.State.Vec[1], 0, 2.0)
	if err := r.Run(mustParse(t, "ucomiss xmm0, xmm1"), nil); err != nil {
		t.Fatal(err)
	}
	if !r.State.CF || r.State.ZF {
		t.Fatal("1 < 2: CF set, ZF clear")
	}
	setF32(&r.State.Vec[1], 0, float32(math.NaN()))
	if err := r.Run(mustParse(t, "ucomiss xmm0, xmm1"), nil); err != nil {
		t.Fatal(err)
	}
	if !r.State.CF || !r.State.ZF || !r.State.PF {
		t.Fatal("unordered sets ZF, PF and CF")
	}
}

func TestPushPop(t *testing.T) {
	base := uint64(0x800000)
	r := mappedRunner(base)
	r.State.WriteGPR(x86.RSP, base+vm.PageSize/2)
	r.State.WriteGPR(x86.RBX, 42)
	if err := r.Run(mustParse(t, "push rbx\npop rcx"), nil); err != nil {
		t.Fatal(err)
	}
	if r.State.ReadGPR(x86.RCX) != 42 {
		t.Fatal("push/pop roundtrip")
	}
	if r.State.ReadGPR(x86.RSP) != base+vm.PageSize/2 {
		t.Fatal("rsp must be restored")
	}
}

func TestCmovAndSetcc(t *testing.T) {
	r := NewRunner(vm.New())
	r.State.WriteGPR(x86.RAX, 1)
	r.State.WriteGPR(x86.RBX, 2)
	prog := mustParse(t, `cmp rax, rbx
		cmovb rcx, rbx
		setb dl`)
	if err := r.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	if r.State.ReadGPR(x86.RCX) != 2 || r.State.ReadGPR(x86.DL) != 1 {
		t.Fatalf("cmov/set: rcx=%d dl=%d", r.State.ReadGPR(x86.RCX), r.State.ReadGPR(x86.DL))
	}
}

func TestShiftSemantics(t *testing.T) {
	r := NewRunner(vm.New())
	r.State.WriteGPR(x86.RDX, 0x12345678)
	if err := r.Run(mustParse(t, "shr $8, %rdx"), nil); err != nil {
		t.Fatal(err)
	}
	if r.State.GPR[x86.RDX.Num()] != 0x123456 {
		t.Fatalf("shr: %#x", r.State.GPR[x86.RDX.Num()])
	}
	// Shift by CL.
	r.State.WriteGPR(x86.RCX, 4)
	if err := r.Run(mustParse(t, "shl cl, rbx"), nil); err == nil {
		t.Log("parsed unusual operand order") // Intel order is shl rbx, cl
	}
	r.State.WriteGPR(x86.RBX, 1)
	if err := r.Run(mustParse(t, "shl rbx, cl"), nil); err != nil {
		t.Fatal(err)
	}
	if r.State.GPR[x86.RBX.Num()] != 16 {
		t.Fatalf("shl by cl: %d", r.State.GPR[x86.RBX.Num()])
	}
}

func TestBitScan(t *testing.T) {
	r := NewRunner(vm.New())
	r.State.WriteGPR(x86.RBX, 0xF0)
	prog := mustParse(t, `popcnt rax, rbx
		tzcnt rcx, rbx
		lzcnt rdx, rbx`)
	if err := r.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	if r.State.GPR[0] != 4 || r.State.GPR[1] != 4 || r.State.GPR[2] != 56 {
		t.Fatalf("popcnt=%d tzcnt=%d lzcnt=%d", r.State.GPR[0], r.State.GPR[1], r.State.GPR[2])
	}
}

func TestMovapsAlignmentFault(t *testing.T) {
	base := uint64(0x40000)
	r := mappedRunner(base)
	r.State.WriteGPR(x86.RDI, base+4) // misaligned
	err := r.Run(mustParse(t, "movaps xmm0, xmmword ptr [rdi]"), nil)
	if _, ok := err.(*AlignmentError); !ok {
		t.Fatalf("expected alignment fault, got %v", err)
	}
	// movups tolerates it.
	r2 := mappedRunner(base)
	r2.State.WriteGPR(x86.RDI, base+4)
	if err := r2.Run(mustParse(t, "movups xmm0, xmmword ptr [rdi]"), nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnimplementedTyped checks that an instruction the executor does not
// implement surfaces as a typed *UnimplementedError with the historical
// message text, and that execution stops at it.
func TestUnimplementedTyped(t *testing.T) {
	r := NewRunner(vm.New())
	r.Record = true
	err := r.Run([]x86.Inst{{Op: x86.NOP}, {Op: x86.BAD}}, nil)
	var ue *UnimplementedError
	if !errors.As(err, &ue) || ue.Op != x86.BAD || ue.Vector {
		t.Fatalf("got %v, want a scalar *UnimplementedError for BAD", err)
	}
	if got, want := err.Error(), "exec: unimplemented op "+x86.BAD.String(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if len(r.Trace) != 1 {
		t.Fatalf("trace holds %d steps, want the 1 before the stop", len(r.Trace))
	}
	if !IsVector(x86.MOVAPS) || !IsVector(x86.VZEROUPPER) || IsVector(x86.ADD) {
		t.Fatal("IsVector misclassifies")
	}
}

func TestFMASemantics(t *testing.T) {
	r := NewRunner(vm.New())
	for i := 0; i < 8; i++ {
		setF32(&r.State.Vec[0], i, 1.0) // dst (addend for 231)
		setF32(&r.State.Vec[1], i, 2.0)
		setF32(&r.State.Vec[2], i, 3.0)
	}
	if err := r.Run(mustParse(t, "vfmadd231ps %ymm2, %ymm1, %ymm0"), nil); err != nil {
		t.Fatal(err)
	}
	if got := getF32(&r.State.Vec[0], 7); got != 7.0 {
		t.Fatalf("fma: 2*3+1 = %f", got)
	}
}

func TestInitRegisters(t *testing.T) {
	s := &State{}
	s.InitRegisters(0x12345600)
	if s.GPR[5] != 0x12345600 {
		t.Fatal("GPR init")
	}
	if getU64(&s.Vec[3], 2) != 0x12345600 {
		t.Fatal("vector init")
	}
}

func TestRIPRelative(t *testing.T) {
	codeBase := uint64(0x400000)
	as := vm.New()
	page := as.NewPhysPage()
	as.Map(codeBase+0x2000, page)
	page.Data[0x100] = 0x99
	r := NewRunner(as)
	prog := mustParse(t, "mov al, byte ptr [rip+0x2100]")
	// Instruction addresses: one instruction; next address = base + length.
	enc, err := x86.Encode(prog[0])
	if err != nil {
		t.Fatal(err)
	}
	// Choose disp so base+len+disp lands on page.Data[0x100].
	disp := int64(codeBase+0x2100) - int64(codeBase) - int64(len(enc))
	prog[0].Args[1].Mem.Disp = int32(disp)
	addrs := []uint64{codeBase, codeBase + uint64(len(enc))}
	if err := r.Run(prog, addrs); err != nil {
		t.Fatal(err)
	}
	if r.State.ReadGPR(x86.AL) != 0x99 {
		t.Fatalf("rip-relative load got %#x", r.State.ReadGPR(x86.AL))
	}
}
