package x86

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRegProperties(t *testing.T) {
	if RAX.Num() != 0 || R15.Num() != 15 || ESP.Num() != 4 {
		t.Fatal("register numbering broken")
	}
	if AH.Num() != 4 || BH.Num() != 7 {
		t.Fatalf("high-byte numbering: ah=%d bh=%d", AH.Num(), BH.Num())
	}
	if EAX.Base64() != RAX || DIL.Base64() != RDI || X3.Base64() != Y3 {
		t.Fatal("Base64 aliasing broken")
	}
	if got := GPReg(3, 4); got != EBX {
		t.Fatalf("GPReg(3,4)=%v", got)
	}
	for r := RegNone + 1; r < regMax; r++ {
		if RegByName(r.String()) != r {
			t.Fatalf("name roundtrip failed for %v", r)
		}
	}
}

func TestRegSizes(t *testing.T) {
	cases := map[Reg]int{AL: 1, AX: 2, EAX: 4, RAX: 8, X0: 16, Y0: 32, AH: 1}
	for r, want := range cases {
		if r.Size() != want {
			t.Errorf("%v.Size()=%d want %d", r, r.Size(), want)
		}
	}
}

// knownEncodings pins byte-exact encodings verified against an external
// assembler.
func TestKnownEncodings(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{NewInst(ADD, RegOp(RAX), RegOp(RBX)), "4801d8"},
		{NewInst(ADD, RegOp(EAX), RegOp(EBX)), "01d8"},
		{NewInst(ADD, RegOp(RDI), ImmOp(1)), "4883c701"},
		{NewInst(MOV, RegOp(EAX), RegOp(EDX)), "89d0"},
		{NewInst(SHR, RegOp(RDX), ImmOp(8)), "48c1ea08"},
		{NewInst(XOR, RegOp(AL), MemOp(Mem{Base: RDI, Disp: -1, Size: 1})), "3247ff"},
		{NewInst(MOVZX, RegOp(EAX), RegOp(AL)), "0fb6c0"},
		{NewInst(XOR, RegOp(RDX), MemOp(Mem{Index: RAX, Scale: 8, Disp: 0x4110a, Size: 8})), "483314c50a110400"},
		{NewInst(CMP, RegOp(RDI), RegOp(RCX)), "4839cf"},
		{NewInst(XOR, RegOp(EDX), RegOp(EDX)), "31d2"},
		{NewInst(DIV, RegOp(ECX)), "f7f1"},
		{NewInst(TEST, RegOp(EDX), RegOp(EDX)), "85d2"},
		{NewInst(VXORPS, RegOp(X2), RegOp(X2), RegOp(X2)), "c5e857d2"},
		{NewInst(MOV, RegOp(RAX), MemOp(Mem{Base: RSP, Disp: 8, Size: 8})), "488b442408"},
		{NewInst(MOV, RegOp(EAX), MemOp(Mem{Base: R13, Size: 4})), "418b4500"},
		{NewInst(LEA, RegOp(RAX), MemOp(Mem{Base: RIP, Disp: 0x100})), "488d0500010000"},
		{NewInst(NOP), "90"},
		{NewInst(MOVSS, RegOp(X1), MemOp(Mem{Base: RAX, Size: 4})), "f30f1008"},
		{NewInst(VADDPS, RegOp(Y1), RegOp(Y2), RegOp(Y3)), "c5ec58cb"},
		{NewInst(VFMADD231PS, RegOp(Y1), RegOp(Y2), RegOp(Y3)), "c4e26db8cb"},
		{NewInst(PUSH, RegOp(RBP)), "55"},
		{NewInst(POP, RegOp(R12)), "415c"},
		{NewInst(IMUL, RegOp(RAX), RegOp(RBX), ImmOp(100)), "486bc364"},
		{NewInst(MOVAPS, MemOp(Mem{Base: RSP, Size: 16}), RegOp(X0)), "0f290424"},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("%v: %v", c.in, err)
			continue
		}
		if hexStr(got) != c.want {
			t.Errorf("%v: got %s want %s", c.in, hexStr(got), c.want)
		}
	}
}

func hexStr(b []byte) string {
	const digits = "0123456789abcdef"
	var sb strings.Builder
	for _, x := range b {
		sb.WriteByte(digits[x>>4])
		sb.WriteByte(digits[x&0xF])
	}
	return sb.String()
}

func TestDecodeRoundtripKnown(t *testing.T) {
	blocks := []string{
		// The Gzip CRC block from the paper.
		`add $1, %rdi
		 mov %edx, %eax
		 shr $8, %rdx
		 xorb -1(%rdi), %al
		 movzbl %al, %eax
		 xor 0x4110a(, %rax, 8), %rdx
		 cmp %rcx, %rdi`,
		// The unsigned-division case-study block.
		`xor %edx, %edx
		 div %ecx
		 test %edx, %edx`,
		// The zero-idiom case-study block.
		`vxorps %xmm2, %xmm2, %xmm2`,
	}
	for _, text := range blocks {
		b, err := ParseBlock(text, SyntaxATT)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		raw, err := b.Bytes()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		insts, err := DecodeBlock(raw)
		if err != nil {
			t.Fatalf("decode %x: %v", raw, err)
		}
		if len(insts) != len(b.Insts) {
			t.Fatalf("decoded %d instructions, want %d", len(insts), len(b.Insts))
		}
		for i := range insts {
			if insts[i].String() != b.Insts[i].String() {
				t.Errorf("roundtrip mismatch: %v != %v", insts[i], b.Insts[i])
			}
		}
	}
}

func TestParseIntel(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"add rax, rbx", "add rax, rbx"},
		{"mov eax, dword ptr [rbp-0x10]", "mov eax, dword ptr [rbp-0x10]"},
		{"add qword ptr [rax], 1", "add qword ptr [rax], 0x1"},
		{"lea rcx, [rax+rbx*4+8]", "lea rcx, [rax+rbx*4+0x8]"},
		{"vaddps ymm0, ymm1, ymmword ptr [rdi]", "vaddps ymm0, ymm1, ymmword ptr [rdi]"},
		{"xor edx, edx", "xor edx, edx"},
		{"movss xmm0, dword ptr [rsp+0x20]", "movss xmm0, dword ptr [rsp+0x20]"},
		{"imul rax, rbx, 100", "imul rax, rbx, 0x64"},
	}
	for _, c := range cases {
		in, err := ParseInst(c.text, SyntaxIntel)
		if err != nil {
			t.Errorf("%q: %v", c.text, err)
			continue
		}
		if in.String() != c.want {
			t.Errorf("%q: got %q want %q", c.text, in.String(), c.want)
		}
	}
}

func TestParseAmbiguousMemSize(t *testing.T) {
	if _, err := ParseInst("add [rax], 1", SyntaxIntel); err == nil {
		t.Fatal("expected ambiguity error for unsized memory + immediate")
	}
	// With a register operand the width is implied.
	if _, err := ParseInst("add [rax], ebx", SyntaxIntel); err != nil {
		t.Fatalf("register should disambiguate: %v", err)
	}
}

func TestATTPrinting(t *testing.T) {
	in := NewInst(XOR, RegOp(RDX), MemOp(Mem{Index: RAX, Scale: 8, Disp: 0x4110a, Size: 8}))
	got := ATTString(in)
	want := "xor 0x4110a(, %rax, 8), %rdx"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	reparsed, err := ParseInst(got, SyntaxATT)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if reparsed.String() != in.String() {
		t.Fatalf("ATT print/parse roundtrip: %v != %v", reparsed, in)
	}
}

func TestInstIO(t *testing.T) {
	crc, err := ParseInst("xorb -1(%rdi), %al", SyntaxATT)
	if err != nil {
		t.Fatal(err)
	}
	if !crc.IsLoad() || crc.IsStore() {
		t.Fatalf("xor al, [mem] should be a load, not a store")
	}
	st, _ := ParseInst("mov qword ptr [rax], rbx", SyntaxIntel)
	if !st.IsStore() || st.IsLoad() {
		t.Fatal("mov [mem], reg should be a store")
	}
	rmw, _ := ParseInst("add qword ptr [rax], rbx", SyntaxIntel)
	if !rmw.IsStore() || !rmw.IsLoad() {
		t.Fatal("add [mem], reg should load and store")
	}
	lea, _ := ParseInst("lea rax, [rbx+8]", SyntaxIntel)
	if lea.IsLoad() || lea.IsStore() {
		t.Fatal("lea must not access memory")
	}
}

// randomInst generates a random encodable instruction by picking a form and
// materializing matching operands.
func randomInst(rng *rand.Rand) Inst {
	for {
		f := &Forms[rng.Intn(len(Forms))]
		if f.Op.IsBranch() {
			continue
		}
		in := Inst{Op: f.Op}
		ok := true
		for i, p := range f.Args {
			o, good := randomOperand(rng, p, f.Roles[i])
			if !good {
				ok = false
				break
			}
			in.Args = append(in.Args, o)
		}
		if !ok {
			continue
		}
		// The form table may match an earlier form; that is fine, the
		// roundtrip only requires semantic equality.
		if _, err := Encode(in); err != nil {
			continue
		}
		return in
	}
}

func randomOperand(rng *rand.Rand, p ArgPat, role argRole) (Operand, bool) {
	gp := func(size int) Reg {
		for {
			n := rng.Intn(16)
			if size == 8 && (n == 4) { // avoid rsp bases for simplicity
				continue
			}
			return GPReg(n, size)
		}
	}
	mem := func(size int) Operand {
		m := Mem{Size: uint8(size)}
		if rng.Intn(4) > 0 {
			m.Base = gp(8)
		}
		if rng.Intn(2) == 0 {
			for {
				idx := gp(8)
				if idx != RSP {
					m.Index = idx
					break
				}
			}
			m.Scale = []uint8{1, 2, 4, 8}[rng.Intn(4)]
		}
		m.Disp = int32(rng.Intn(1<<12) - 1<<11)
		if m.Base == RegNone && m.Index == RegNone {
			m.Disp = int32(rng.Intn(1 << 20))
		}
		return MemOp(m)
	}
	switch p {
	case PatR8:
		// Skip high-byte registers: mixing them with REX operands is
		// rejected by the encoder, which the retry loop handles, but
		// avoiding them entirely keeps generation fast.
		return RegOp(GPReg(rng.Intn(16), 1)), true
	case PatR16:
		return RegOp(gp(2)), true
	case PatR32:
		return RegOp(gp(4)), true
	case PatR64:
		return RegOp(gp(8)), true
	case PatRM8:
		if rng.Intn(2) == 0 {
			return RegOp(GPReg(rng.Intn(16), 1)), true
		}
		return mem(1), true
	case PatRM16:
		if rng.Intn(2) == 0 {
			return RegOp(gp(2)), true
		}
		return mem(2), true
	case PatRM32:
		if rng.Intn(2) == 0 {
			return RegOp(gp(4)), true
		}
		return mem(4), true
	case PatRM64:
		if rng.Intn(2) == 0 {
			return RegOp(gp(8)), true
		}
		return mem(8), true
	case PatM:
		return mem(0), true
	case PatM32:
		return mem(4), true
	case PatM64:
		return mem(8), true
	case PatM128:
		return mem(16), true
	case PatM256:
		return mem(32), true
	case PatImm8:
		return ImmOp(int64(rng.Intn(256) - 128)), true
	case PatImm16:
		return ImmOp(int64(rng.Intn(1<<16) - 1<<15)), true
	case PatImm32:
		return ImmOp(int64(int32(rng.Uint32()))), true
	case PatImm64:
		return ImmOp(int64(rng.Uint64())), true
	case PatXMM:
		return RegOp(VecReg(rng.Intn(16), 16)), true
	case PatYMM:
		return RegOp(VecReg(rng.Intn(16), 32)), true
	case PatXM32:
		if rng.Intn(2) == 0 {
			return RegOp(VecReg(rng.Intn(16), 16)), true
		}
		return mem(4), true
	case PatXM64:
		if rng.Intn(2) == 0 {
			return RegOp(VecReg(rng.Intn(16), 16)), true
		}
		return mem(8), true
	case PatXM128:
		if rng.Intn(2) == 0 {
			return RegOp(VecReg(rng.Intn(16), 16)), true
		}
		return mem(16), true
	case PatYM256:
		if rng.Intn(2) == 0 {
			return RegOp(VecReg(rng.Intn(16), 32)), true
		}
		return mem(32), true
	case PatCL:
		return RegOp(CL), true
	}
	return Operand{}, false
}

// TestEncodeDecodeRoundtripProperty is the core property test: any
// encodable instruction decodes back to a semantically identical one.
func TestEncodeDecodeRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		in := randomInst(rng)
		raw, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		got, n, err := Decode(raw)
		if err != nil {
			t.Fatalf("decode %v (%x): %v", in, raw, err)
		}
		if n != len(raw) {
			t.Fatalf("decode %v: consumed %d of %d bytes", in, n, len(raw))
		}
		if got.String() != in.String() {
			t.Fatalf("roundtrip: %x: got %q want %q", raw, got.String(), in.String())
		}
	}
}

// TestIntelPrintParseRoundtripProperty checks the printer and parser agree.
func TestIntelPrintParseRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		in := randomInst(rng)
		text := in.String()
		got, err := ParseInst(text, SyntaxIntel)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		// Parsing may resolve to a different-but-equivalent form; compare
		// the printed result.
		if got.String() != text {
			t.Fatalf("print/parse: got %q want %q", got.String(), text)
		}
	}
}

func TestBlockHexRoundtrip(t *testing.T) {
	b, err := ParseBlock("add rax, rbx\nmov rcx, qword ptr [rax]\nvxorps xmm1, xmm1, xmm1", SyntaxIntel)
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Hex()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BlockFromHex(h)
	if err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Fatalf("hex roundtrip mismatch:\n%s\nvs\n%s", b2, b)
	}
}

func TestBlockStats(t *testing.T) {
	b, _ := ParseBlock(`mov rax, qword ptr [rdi]
		mov qword ptr [rsi], rax
		add rbx, rcx
		vaddps ymm0, ymm0, ymm1`, SyntaxIntel)
	if b.NumLoads() != 1 || b.NumStores() != 1 {
		t.Fatalf("loads=%d stores=%d", b.NumLoads(), b.NumStores())
	}
	if !b.HasVector() {
		t.Fatal("block has vector instructions")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode([]byte{0x06}); err == nil { // invalid in 64-bit mode
		t.Fatal("expected decode error")
	}
	if _, _, err := Decode([]byte{0x48}); err == nil { // lone REX prefix
		t.Fatal("expected truncation error")
	}
}

// TestATTPrintParseRoundtripProperty: AT&T printing and parsing agree for
// random encodable instructions.
func TestATTPrintParseRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		in := randomInst(rng)
		text := ATTString(in)
		got, err := ParseInst(text, SyntaxATT)
		if err != nil {
			t.Fatalf("parse %q (from %v): %v", text, in, err)
		}
		if got.String() != in.String() {
			t.Fatalf("ATT roundtrip: %q -> %q (via %q)", in.String(), got.String(), text)
		}
	}
}
