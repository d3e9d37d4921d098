package profiler

import (
	"testing"

	"bhive/internal/uarch"
	"bhive/internal/x86"
)

func block(t *testing.T, text string) *x86.Block {
	t.Helper()
	b, err := x86.ParseBlock(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProfileRegisterOnlyBlock(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	r := p.Profile(block(t, "add rax, rbx"))
	if r.Status != StatusOK {
		t.Fatalf("status %v (%v)", r.Status, r.Err)
	}
	if r.Throughput < 0.9 || r.Throughput > 1.1 {
		t.Fatalf("dependent add throughput %.3f", r.Throughput)
	}
}

func TestProfileMemoryBlockNeedsMapping(t *testing.T) {
	// The CRC block crashes without mapping and profiles with it.
	text := `add $1, %rdi
		mov %edx, %eax
		shr $8, %rdx
		xorb -1(%rdi), %al
		movzbl %al, %eax
		xor 0x4110a(, %rax, 8), %rdx
		cmp %rcx, %rdi`

	baseline := New(uarch.Haswell(), BaselineOptions())
	r := baseline.Profile(block(t, text))
	if r.Status != StatusCrashed {
		t.Fatalf("baseline should crash, got %v", r.Status)
	}

	full := New(uarch.Haswell(), DefaultOptions())
	opts := DefaultOptions()
	opts.FilterMisaligned = false // the table walk occasionally splits lines
	full = New(uarch.Haswell(), opts)
	r = full.Profile(block(t, text))
	if r.Status != StatusOK {
		t.Fatalf("full methodology should profile the CRC block: %v (%v)", r.Status, r.Err)
	}
	if r.Throughput < 6 || r.Throughput > 11 {
		t.Fatalf("CRC throughput %.2f, paper measured 8.25", r.Throughput)
	}
	if r.PagesMapped == 0 {
		t.Fatal("monitor must have mapped pages")
	}
}

func TestZeroIdiomBlockThroughput(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	r := p.Profile(block(t, "vxorps %xmm2, %xmm2, %xmm2"))
	if r.Status != StatusOK {
		t.Fatalf("%v (%v)", r.Status, r.Err)
	}
	if r.Throughput < 0.2 || r.Throughput > 0.35 {
		t.Fatalf("vxorps idiom throughput %.3f, paper measured 0.25", r.Throughput)
	}
}

func TestDivBlockThroughput(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	r := p.Profile(block(t, "xor %edx, %edx\ndiv %ecx\ntest %edx, %edx"))
	if r.Status != StatusOK {
		t.Fatalf("%v (%v)", r.Status, r.Err)
	}
	if r.Throughput < 18 || r.Throughput > 26 {
		t.Fatalf("div block throughput %.2f, paper measured 21.62", r.Throughput)
	}
}

func TestDistinctPhysPagesCauseMisses(t *testing.T) {
	// Strided loads across >8 pages with identical page offsets: with one
	// physical page per virtual page the 8-way L1 set overflows; with the
	// single-page trick everything hits.
	text := `mov rax, qword ptr [rbx]
		mov rcx, qword ptr [rbx+0x1000]
		mov rdx, qword ptr [rbx+0x2000]
		mov rsi, qword ptr [rbx+0x3000]
		mov rdi, qword ptr [rbx+0x4000]
		mov r8, qword ptr [rbx+0x5000]
		mov r9, qword ptr [rbx+0x6000]
		mov r10, qword ptr [rbx+0x7000]
		mov r11, qword ptr [rbx+0x8000]
		mov r12, qword ptr [rbx+0x9000]
		mov r13, qword ptr [rbx+0xa000]`

	multi := MappingOptions()
	multi.SinglePhysPage = false
	pm := New(uarch.Haswell(), multi)
	rm := pm.Profile(block(t, text))
	if rm.Status != StatusCacheMiss {
		t.Fatalf("distinct frames should miss: %v", rm.Status)
	}

	ps := New(uarch.Haswell(), MappingOptions())
	rs := ps.Profile(block(t, text))
	if rs.Status != StatusOK {
		t.Fatalf("single frame should hit: %v (%v)", rs.Status, rs.Err)
	}
}

func TestLargeBlockNaiveVsDerived(t *testing.T) {
	// A ~1.5KB block: unrolled 100x it overflows the 32KB L1I and is
	// rejected under naive unrolling, but profiles under the derived
	// method with small unroll factors.
	var text string
	for i := 0; i < 100; i++ {
		text += "vfmadd231ps %ymm2, %ymm3, %ymm0\nadd rax, 1\nvaddps %ymm5, %ymm6, %ymm7\n"
	}
	b := block(t, text)

	naive := New(uarch.Haswell(), MappingOptions())
	rn := naive.Profile(b)
	if rn.Status != StatusCacheMiss {
		t.Fatalf("naive 100x unroll should blow L1I: %v", rn.Status)
	}

	full := New(uarch.Haswell(), DefaultOptions())
	rf := full.Profile(b)
	if rf.Status != StatusOK {
		t.Fatalf("derived method should profile it: %v (%v)", rf.Status, rf.Err)
	}
	if rf.UnrollHi >= 100 {
		t.Fatalf("derived method should use small unrolls, got %d", rf.UnrollHi)
	}
}

func TestMisalignedFilter(t *testing.T) {
	// A load at offset 0x3c crosses a 64-byte line.
	text := "mov rax, qword ptr [rbx+0x3c]"
	p := New(uarch.Haswell(), DefaultOptions())
	r := p.Profile(block(t, text))
	if r.Status != StatusMisaligned {
		t.Fatalf("expected misaligned rejection, got %v", r.Status)
	}

	opts := DefaultOptions()
	opts.FilterMisaligned = false
	p2 := New(uarch.Haswell(), opts)
	r2 := p2.Profile(block(t, text))
	if r2.Status != StatusOK {
		t.Fatalf("filter off: %v", r2.Status)
	}
}

func TestUnsupportedBlockOnIvyBridge(t *testing.T) {
	p := New(uarch.IvyBridge(), DefaultOptions())
	r := p.Profile(block(t, "vfmadd231ps %ymm1, %ymm2, %ymm3"))
	if r.Status != StatusUnsupported {
		t.Fatalf("got %v", r.Status)
	}
}

func TestInvalidPointerCrashes(t *testing.T) {
	// A null-page dereference cannot be mapped.
	p := New(uarch.Haswell(), DefaultOptions())
	r := p.Profile(block(t, "xor ebx, ebx\nmov rax, qword ptr [rbx]"))
	if r.Status != StatusCrashed {
		t.Fatalf("null deref must crash, got %v", r.Status)
	}
}

// TestFunctionalStops checks the typed reason the functional pass reports
// for every way it can end early, and that Profile's status follows it.
func TestFunctionalStops(t *testing.T) {
	tests := []struct {
		name string
		cpu  *uarch.CPU
		opts Options
		text string
		stop Stop
		want Status
	}{
		{"ok", uarch.Haswell(), DefaultOptions(), "mov rax, qword ptr [rsp+8]", StopNone, StatusOK},
		{"prepare", uarch.IvyBridge(), DefaultOptions(), "vpaddd ymm0, ymm0, ymm0", StopPrepare, StatusUnsupported},
		{"no-mapping", uarch.Haswell(), BaselineOptions(), "mov rax, qword ptr [rbx]", StopNoMapping, StatusCrashed},
		{"bad-address", uarch.Haswell(), DefaultOptions(), "xor ebx, ebx\nmov rax, qword ptr [rbx]", StopBadAddress, StatusCrashed},
		{"page-budget", uarch.Haswell(), DefaultOptions(), "add rbx, 0x1000\nmov rax, qword ptr [rbx]", StopPageBudget, StatusCrashed},
		{"alignment", uarch.Haswell(), DefaultOptions(), "movaps xmm1, xmmword ptr [rcx+1]", StopAlignment, StatusCrashed},
		{"divide", uarch.Haswell(), DefaultOptions(), "xor ecx, ecx\ndiv ecx", StopDivide, StatusCrashed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.cpu, tc.opts)
			b := block(t, tc.text)
			var got Pass
			p.Functional(b, func(pass *Pass) {
				got = *pass
				got.Steps = nil // aliases pooled buffers
				if pass.Err == nil {
					if _, hi := tc.opts.UnrollFactors(len(b.Insts)); len(pass.Steps) != hi*len(b.Insts) {
						t.Errorf("completed pass traced %d steps, want %d", len(pass.Steps), hi*len(b.Insts))
					}
				}
			})
			if got.Stop != tc.stop || (got.Err == nil) != (tc.stop == StopNone) {
				t.Fatalf("stop %v (err %v), want %v", got.Stop, got.Err, tc.stop)
			}
			r := p.Profile(b)
			if r.Status != tc.want {
				t.Fatalf("profile status %v, want %v", r.Status, tc.want)
			}
			if tc.stop == StopPageBudget && got.PagesMapped != tc.opts.MaxFaults {
				t.Fatalf("budget stop after %d pages, want %d", got.PagesMapped, tc.opts.MaxFaults)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	b := block(t, "add rax, rbx\nmov rcx, qword ptr [rsp+8]")
	r1 := p.Profile(b)
	r2 := p.Profile(b)
	if r1.Status != StatusOK || r1.Throughput != r2.Throughput {
		t.Fatalf("profiling must be deterministic: %v %.3f vs %.3f",
			r1.Status, r1.Throughput, r2.Throughput)
	}
}

func TestSubnormalNormalization(t *testing.T) {
	// A block whose FP inputs come from memory filled with the pattern
	// 0x12345600 — those bits decode to tiny but *normal* floats, so this
	// exercises the FTZ path only through the option flag. Check that both
	// settings profile, and that disabling the protection never *increases*
	// the measured throughput.
	text := "movss xmm0, dword ptr [rsp]\nmulss xmm0, xmm1\naddss xmm0, xmm2"
	withFTZ := New(uarch.Haswell(), DefaultOptions())
	r1 := withFTZ.Profile(block(t, text))
	if r1.Status != StatusOK {
		t.Fatalf("%v (%v)", r1.Status, r1.Err)
	}
	opts := DefaultOptions()
	opts.DisableSubnormals = false
	without := New(uarch.Haswell(), opts)
	r2 := without.Profile(block(t, text))
	if r2.Status == StatusOK && r2.Throughput < r1.Throughput-0.01 {
		t.Fatalf("gradual underflow cannot make code faster: %.2f vs %.2f",
			r2.Throughput, r1.Throughput)
	}
}

func TestRealSampleNoiseProtocol(t *testing.T) {
	b := block(t, "add rax, rbx\nmov rcx, qword ptr [rsp+8]")

	// Quiet machine: all 16 real samples are clean and identical.
	opts := DefaultOptions()
	opts.RealSampleNoise = true
	opts.SwitchRate = 0
	p := New(uarch.Haswell(), opts)
	r := p.Profile(b)
	if r.Status != StatusOK || r.CleanSamples != opts.Samples {
		t.Fatalf("quiet: %v, %d clean", r.Status, r.CleanSamples)
	}

	// Pathologically noisy machine: most samples get interrupted and the
	// measurement is rejected as unstable.
	noisy := DefaultOptions()
	noisy.RealSampleNoise = true
	noisy.SwitchRate = 0.05
	noisy.SwitchCost = 1000
	pn := New(uarch.Haswell(), noisy)
	rn := pn.Profile(b)
	if rn.Status != StatusUnstable {
		t.Fatalf("noisy machine should be unstable, got %v (%d clean)", rn.Status, rn.CleanSamples)
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		StatusOK: "ok", StatusCrashed: "crashed", StatusUnsupported: "unsupported",
		StatusCacheMiss: "cache-miss", StatusMisaligned: "misaligned",
		StatusUnstable: "unstable",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d: %q want %q", s, s.String(), want)
		}
	}
	if Status(99).String() != "status?" {
		t.Error("unknown status")
	}
}

func TestMeasureRaw(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	b := block(t, "add rax, rbx\nmov rcx, qword ptr [rsp+8]")
	c8, err := p.MeasureRaw(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	c16, err := p.MeasureRaw(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c16.Cycles <= c8.Cycles {
		t.Fatalf("more unrolling cannot be faster: %d vs %d", c16.Cycles, c8.Cycles)
	}
	tp := float64(c16.Cycles-c8.Cycles) / 8
	if tp < 0.5 || tp > 3 {
		t.Fatalf("derived throughput %.2f implausible", tp)
	}
	// Raw measurement reports counters even for configurations the
	// acceptance filters would reject.
	noMap := BaselineOptions()
	pb := New(uarch.Haswell(), noMap)
	if _, err := pb.MeasureRaw(b, 8); err == nil {
		t.Fatal("baseline raw measurement of a memory block must fail")
	}
	// Unsupported ISA propagates.
	ivb := New(uarch.IvyBridge(), DefaultOptions())
	if _, err := ivb.MeasureRaw(block(t, "vfmadd231ps %ymm1, %ymm2, %ymm3"), 4); err == nil {
		t.Fatal("unsupported instruction must error")
	}
}

func TestEmptyBlockProfile(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	if r := p.Profile(&x86.Block{}); r.Status != StatusCrashed {
		t.Fatalf("empty block: %v", r.Status)
	}
}

func TestUnrollFactorSelection(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	lo, hi := p.Opts.UnrollFactors(1)
	if lo < 4 || hi != 2*lo || lo > 100 {
		t.Fatalf("single-inst block: %d/%d", lo, hi)
	}
	lo, hi = p.Opts.UnrollFactors(500)
	if lo != 4 || hi != 8 {
		t.Fatalf("huge block must use the minimum: %d/%d", lo, hi)
	}
	naive := New(uarch.Haswell(), MappingOptions())
	lo, hi = naive.Opts.UnrollFactors(10)
	if lo != 0 || hi != 100 {
		t.Fatalf("naive mode: %d/%d", lo, hi)
	}
}
