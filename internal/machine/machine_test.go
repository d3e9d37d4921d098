package machine

import (
	"reflect"
	"testing"

	"bhive/internal/exec"
	"bhive/internal/memo"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// measureTP measures steady-state cycles-per-iteration of a block using the
// two-unroll-factor method, pre-mapping every page the block touches onto a
// single physical frame (the profiler does this automatically; tests do it
// by hand to exercise the machine directly).
func measureTP(t *testing.T, cpu *uarch.CPU, text string, u1, u2 int) float64 {
	t.Helper()
	block, err := x86.Parse(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	run := func(unroll int) uint64 {
		m := New(cpu, 7)
		insts := make([]x86.Inst, 0, len(block)*unroll)
		for i := 0; i < unroll; i++ {
			insts = append(insts, block...)
		}
		p, err := m.Prepare(insts)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		frame := m.AS.NewPhysPage()
		frame.Fill(0x12345600)

		const pattern = 0x12345600
		newState := func() *exec.State {
			st := &exec.State{FTZ: true, DAZ: true}
			st.InitRegisters(pattern)
			return st
		}

		// Mapping loop: intercept faults, map the page, restart.
		for tries := 0; tries < 64; tries++ {
			steps, err := m.Execute(p, newState())
			if err == nil {
				_ = steps
				break
			}
			f, ok := err.(*vm.Fault)
			if !ok {
				t.Fatalf("execute: %v", err)
			}
			m.AS.Map(f.Addr, frame)
		}

		// Warm-up run, then the timed run, over one graph.
		steps, err := m.Execute(p, newState())
		if err != nil {
			t.Fatalf("post-mapping execute: %v", err)
		}
		g := m.PrepareGraph(p, steps)
		m.TimeGraph(g, Config{})
		ctr := m.TimeGraph(g, Config{})
		if ctr.L1DReadMisses+ctr.L1DWriteMisses != 0 {
			t.Fatalf("unexpected D-cache misses: %+v", ctr)
		}
		return ctr.Cycles
	}

	c1, c2 := run(u1), run(u2)
	return float64(c2-c1) / float64(u2-u1)
}

func within(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s: throughput %.2f outside [%v, %v]", name, got, lo, hi)
	}
}

func TestDependentAddChain(t *testing.T) {
	tp := measureTP(t, uarch.Haswell(), "add rax, rbx", 32, 64)
	within(t, "dependent add", tp, 0.95, 1.1)
}

func TestIndependentAdds(t *testing.T) {
	// Four independent single-cycle adds: limited by the 4-wide front end
	// (and 4 ALU ports on Haswell) to ~1 cycle per iteration.
	tp := measureTP(t, uarch.Haswell(), `add rax, 1
		add rbx, 1
		add rcx, 1
		add rdx, 1`, 32, 64)
	within(t, "independent adds", tp, 0.95, 1.4)
}

func TestZeroIdiomThroughput(t *testing.T) {
	// vxorps zero idiom: eliminated at rename, 4 per cycle → 0.25.
	tp := measureTP(t, uarch.Haswell(), "vxorps %xmm2, %xmm2, %xmm2", 64, 128)
	within(t, "vxorps idiom", tp, 0.2, 0.35)
}

func TestDiv32Throughput(t *testing.T) {
	// The paper's case-study block: measured 21.62 on Haswell.
	tp := measureTP(t, uarch.Haswell(), `xor %edx, %edx
		div %ecx
		test %edx, %edx`, 8, 16)
	within(t, "div32 block", tp, 18, 26)
}

func TestDiv64MuchSlower(t *testing.T) {
	tp32 := measureTP(t, uarch.Haswell(), "xor %edx, %edx\ndiv %ecx", 8, 16)
	tp64 := measureTP(t, uarch.Haswell(), "xor %edx, %edx\ndiv %rcx", 8, 16)
	if tp64 < tp32*3 {
		t.Fatalf("64-bit divide (%f) should dwarf 32-bit (%f)", tp64, tp32)
	}
}

func TestLoadLatencyChain(t *testing.T) {
	// Pointer chase: mov rax, [rax] — bound by the 4-cycle load-to-use
	// latency (the loaded value equals the page fill pattern, so the chase
	// stays on one page).
	tp := measureTP(t, uarch.Haswell(), "mov rax, qword ptr [rax]", 16, 32)
	within(t, "pointer chase", tp, 3.8, 5.2)
}

func TestCRCBlockThroughput(t *testing.T) {
	// The paper's Gzip CRC block: measured 8.25 on Haswell. The loop-carried
	// dependence through rdx (xor-al → movzx → table load → xor-rdx)
	// dominates at ~7 cycles, plus occasional line-split table loads.
	tp := measureTP(t, uarch.Haswell(), `add $1, %rdi
		mov %edx, %eax
		shr $8, %rdx
		xorb -1(%rdi), %al
		movzbl %al, %eax
		xor 0x4110a(, %rax, 8), %rdx
		cmp %rcx, %rdi`, 16, 32)
	within(t, "crc block", tp, 6.5, 10.5)
}

func TestFPAddChain(t *testing.T) {
	// addss dependent chain: 3-cycle latency on Haswell, 4 on Skylake.
	hsw := measureTP(t, uarch.Haswell(), "addss xmm0, xmm1", 32, 64)
	within(t, "hsw fp add chain", hsw, 2.8, 3.4)
	skl := measureTP(t, uarch.Skylake(), "addss xmm0, xmm1", 32, 64)
	within(t, "skl fp add chain", skl, 3.8, 4.4)
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store + reload of the same location: bound by forwarding latency,
	// not by a cache round trip.
	tp := measureTP(t, uarch.Haswell(), `mov qword ptr [rsp+0x10], rax
		mov rax, qword ptr [rsp+0x10]`, 16, 32)
	within(t, "store-forward", tp, 4, 9)
}

func TestVectorFPThroughput(t *testing.T) {
	// Two dependent FMA accumulator streams: each advances one 5-cycle FMA
	// per iteration, so the pair is latency-bound at ~5 cycles/iteration.
	tp := measureTP(t, uarch.Haswell(), `vfmadd231ps %ymm2, %ymm3, %ymm0
		vfmadd231ps %ymm2, %ymm3, %ymm1`, 32, 64)
	within(t, "dual fma accumulators", tp, 4.5, 5.5)

	// Ten independent accumulators saturate the two FMA ports instead:
	// 10 FMAs / 2 ports ≈ 5 cycles, and the chains no longer serialize.
	var text string
	for i := 0; i < 10; i++ {
		text += "vfmadd231ps %ymm10, %ymm11, %ymm" + string(rune('0'+i)) + "\n"
	}
	tp10 := measureTP(t, uarch.Haswell(), text, 16, 32)
	within(t, "ten fma accumulators", tp10, 4.5, 6.5)
	perFMA := tp10 / 10
	if perFMA > 0.7 {
		t.Errorf("port-bound FMA throughput %.2f/op, want ≈0.5", perFMA)
	}
}

func TestSubnormalPenalty(t *testing.T) {
	// With FTZ/DAZ off and a subnormal input, FP ops take the microcode
	// path and get dramatically slower.
	block, err := x86.Parse("mulss xmm0, xmm1", x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ftz bool) uint64 {
		m := New(uarch.Haswell(), 3)
		var insts []x86.Inst
		for i := 0; i < 16; i++ {
			insts = append(insts, block...)
		}
		p, err := m.Prepare(insts)
		if err != nil {
			t.Fatal(err)
		}
		st := &exec.State{FTZ: ftz, DAZ: ftz}
		st.InitRegisters(0x12345600)
		// xmm1 lane 0 = smallest subnormal float.
		st.Vec[1] = [32]byte{1}
		st.Vec[0] = [32]byte{0, 0, 0x80, 0x3F} // 1.0f
		steps, err := m.Execute(p, st)
		if err != nil {
			t.Fatal(err)
		}
		g := m.PrepareGraph(p, steps)
		m.TimeGraph(g, Config{}) // warm-up
		return m.TimeGraph(g, Config{}).Cycles
	}
	slow, fast := run(false), run(true)
	if slow < 5*fast {
		t.Fatalf("subnormal path (%d cycles) should dwarf FTZ path (%d)", slow, fast)
	}
}

func TestICacheOverflowOnLargeUnroll(t *testing.T) {
	// A ~420-byte vectorized block unrolled 100x exceeds the 32KB L1I:
	// steady-state instruction-cache misses appear, as in the paper's
	// motivation for derived-throughput measurement.
	var text string
	for i := 0; i < 30; i++ {
		text += "vfmadd231ps %ymm2, %ymm3, %ymm0\nvaddps %ymm4, %ymm5, %ymm6\nadd rax, 1\n"
	}
	block, err := x86.Parse(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	m := New(uarch.Haswell(), 5)
	var insts []x86.Inst
	for i := 0; i < 100; i++ {
		insts = append(insts, block...)
	}
	p, err := m.Prepare(insts)
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeSize() < 36<<10 {
		t.Fatalf("test block too small: %d bytes", p.CodeSize())
	}
	st := &exec.State{FTZ: true, DAZ: true}
	st.InitRegisters(0x12345600)
	steps, err := m.Execute(p, st)
	if err != nil {
		t.Fatal(err)
	}
	g := m.PrepareGraph(p, steps)
	m.TimeGraph(g, Config{}) // warm-up
	ctr := m.TimeGraph(g, Config{})
	if ctr.L1IMisses == 0 {
		t.Fatal("expected steady-state I-cache misses for a 40KB unroll")
	}
}

func TestMisalignedAccessCounter(t *testing.T) {
	m := New(uarch.Haswell(), 13)
	// Load crossing a 64-byte line boundary.
	block, _ := x86.Parse("mov rax, qword ptr [rbx+0x3c]", x86.SyntaxIntel)
	p, err := m.Prepare(block)
	if err != nil {
		t.Fatal(err)
	}
	frame := m.AS.NewPhysPage()
	base := uint64(0x30000)
	m.AS.Map(base, frame)
	st := &exec.State{}
	st.InitRegisters(base)
	steps, err := m.Execute(p, st)
	if err != nil {
		t.Fatal(err)
	}
	ctr := m.TimeGraph(m.PrepareGraph(p, steps), Config{})
	if ctr.MisalignedLoads == 0 {
		t.Fatal("line-crossing load must bump the misaligned counter")
	}
}

func TestUnsupportedInstructionOnIVB(t *testing.T) {
	m := New(uarch.IvyBridge(), 1)
	block, _ := x86.Parse("vfmadd231ps %ymm1, %ymm2, %ymm3", x86.SyntaxATT)
	if _, err := m.Prepare(block); err == nil {
		t.Fatal("Ivy Bridge must reject FMA")
	}
}

func TestResetAndRemap(t *testing.T) {
	m := New(uarch.Haswell(), 1)
	block, _ := x86.Parse("mov rax, qword ptr [rip+0x10]", x86.SyntaxIntel)
	p, err := m.Prepare(block)
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	if m.AS.NumMappings() == 0 {
		t.Fatal("Prepare must map the code")
	}
	m.AS.UnmapAll()
	m.RemapCode()
	if m.AS.NumMappings() == 0 {
		t.Fatal("RemapCode must restore the code pages")
	}
	m.Reset()
	if m.AS.NumMappings() != 0 {
		t.Fatal("Reset must clear the address space")
	}
}

// TestPrepareUnrolledItems pins the Program layout: a program prepared
// with PrepareUnrolled keeps only the block's resolved entries, and must
// yield the same addresses, timed items and counters as Prepare, which
// resolves every copy, for whole programs and for Slice cuts that end
// inside a block copy.
func TestPrepareUnrolledItems(t *testing.T) {
	const unroll = 12
	for _, text := range []string{
		"add rax, rbx",
		"mov rcx, qword ptr [rsp+8]\nadd ax, 0x1234\nmov qword ptr [rsp+12], rcx\nxor edx, edx\ndiv ecx",
		"add rdi, 1\nmov eax, edx\nshr rdx, 8\nmovzx eax, al\nxor rdx, qword ptr [rax*8+0x4110a]\ncmp rcx, rdi",
	} {
		block, err := x86.Parse(text, x86.SyntaxAuto)
		if err != nil {
			t.Fatal(err)
		}
		n := len(block)
		insts := unrollInsts(block, unroll)
		mA, pA, stepsA, _, okA := pairSetup(uarch.Skylake(), insts, n)
		mB, pB, stepsB, _, okB := pairSetup(uarch.Skylake(), insts, len(insts))
		if !okA || !okB {
			t.Fatalf("%q does not run", text)
		}
		if len(pA.entries) != n || len(pB.entries) != len(insts) {
			t.Fatalf("%q: %d and %d entries, want %d and %d", text, len(pA.entries), len(pB.entries), n, len(insts))
		}
		if !reflect.DeepEqual(pA.Addrs, pB.Addrs) {
			t.Fatalf("%q: addresses differ", text)
		}
		for _, k := range []int{len(insts), 5*n + n/2 + 1, 1} {
			itemsA := mA.buildItems(pA.Slice(k), stepsA[:k])
			itemsB := mB.buildItems(pB.Slice(k), stepsB[:k])
			if !reflect.DeepEqual(itemsA, itemsB) {
				t.Fatalf("%q cut %d: PrepareUnrolled items differ from Prepare's", text, k)
			}
			gA := mA.PrepareGraph(pA.Slice(k), stepsA[:k])
			gB := mB.PrepareGraph(pB.Slice(k), stepsB[:k])
			mA.WarmCaches(pA.Slice(k), stepsA[:k])
			mB.WarmCaches(pB.Slice(k), stepsB[:k])
			if a, b := mA.TimeGraph(gA, Config{}), mB.TimeGraph(gB, Config{}); a != b {
				t.Fatalf("%q cut %d: counters %+v != %+v", text, k, a, b)
			}
		}
	}
}

func TestRegSetsFlagsAndImplicits(t *testing.T) {
	regSets := func(in *x86.Inst) (addr, data, writes []uint8) {
		e := memo.Inst(in)
		return e.Addr, e.Data, e.Writes
	}
	in, _ := x86.ParseInst("adc rax, rbx", x86.SyntaxIntel)
	_, data, writes := regSets(&in)
	hasFlagRead, hasFlagWrite := false, false
	for _, r := range data {
		if r == RegFlags {
			hasFlagRead = true
		}
	}
	for _, r := range writes {
		if r == RegFlags {
			hasFlagWrite = true
		}
	}
	if !hasFlagRead || !hasFlagWrite {
		t.Fatal("adc reads and writes flags")
	}

	div, _ := x86.ParseInst("div ecx", x86.SyntaxIntel)
	_, data, writes = regSets(&div)
	found := map[uint8]bool{}
	for _, r := range data {
		found[r] = true
	}
	if !found[0] || !found[2] { // rax, rdx
		t.Fatalf("div implicit reads: %v", data)
	}
	foundW := map[uint8]bool{}
	for _, r := range writes {
		foundW[r] = true
	}
	if !foundW[0] || !foundW[2] {
		t.Fatalf("div implicit writes: %v", writes)
	}

	mem, _ := x86.ParseInst("mov rax, qword ptr [rbx+rcx*2]", x86.SyntaxIntel)
	addr, _, _ := regSets(&mem)
	if len(addr) != 2 {
		t.Fatalf("addressing registers: %v", addr)
	}
}
