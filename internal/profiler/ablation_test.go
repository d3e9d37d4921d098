package profiler

import (
	"testing"

	"bhive/internal/uarch"
)

// TestOptionsAblation locks the ablation semantics behind the paper's
// Table I: starting from the full methodology (DefaultOptions), toggling
// each measurement technique off individually must reproduce that
// technique's qualitative failure mode on a block constructed to need it.
// These are the semantics Table1/Table2 regenerate; a profiler change
// that silently makes a disabled technique unnecessary (or a default one
// insufficient) fails here with the technique's name.
func TestOptionsAblation(t *testing.T) {
	// Strided loads with identical page offsets: >8 distinct physical
	// frames overflow the 8-way L1 set unless everything maps to one frame.
	strided := `mov rax, qword ptr [rbx]
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

	// A ~1.5KB block: 100x naive unrolling overflows the 32KB L1I.
	var big string
	for i := 0; i < 100; i++ {
		big += "vfmadd231ps %ymm2, %ymm3, %ymm0\nadd rax, 1\nvaddps %ymm5, %ymm6, %ymm7\n"
	}

	cases := []struct {
		technique string
		toggle    func(*Options)
		text      string
		// withDefault / withToggled are the expected statuses under the
		// full methodology and with the one technique disabled.
		withDefault, withToggled Status
	}{
		{
			// Table I/II: without page mapping, any memory access faults.
			technique:   "MapPages",
			toggle:      func(o *Options) { o.MapPages = false },
			text:        "mov rax, qword ptr [rbx]\nadd rax, 1",
			withDefault: StatusOK, withToggled: StatusCrashed,
		},
		{
			// Register initialization gives pointers the mappable pattern;
			// uninitialized registers dereference the unmappable null page.
			technique:   "InitRegisters",
			toggle:      func(o *Options) { o.InitRegisters = false },
			text:        "mov rax, qword ptr [rbx]\nadd rax, 1",
			withDefault: StatusOK, withToggled: StatusCrashed,
		},
		{
			// Table II "single physical page": distinct frames alias the
			// same cache sets and the timed run takes L1D misses.
			technique:   "SinglePhysPage",
			toggle:      func(o *Options) { o.SinglePhysPage = false },
			text:        strided,
			withDefault: StatusOK, withToggled: StatusCacheMiss,
		},
		{
			// Table II "smaller unroll factor": naive 100x unrolling blows
			// the I-cache on large blocks; derived throughput profiles them.
			technique:   "DerivedThroughput",
			toggle:      func(o *Options) { o.DerivedThroughput = false },
			text:        big,
			withDefault: StatusOK, withToggled: StatusCacheMiss,
		},
		{
			// The misalignment filter rejects line-crossing accesses; with
			// it off they pass — the failure mode is a silently accepted
			// measurement, not a crash.
			technique:   "FilterMisaligned",
			toggle:      func(o *Options) { o.FilterMisaligned = false },
			text:        "mov rax, qword ptr [rbx+0x3c]",
			withDefault: StatusMisaligned, withToggled: StatusOK,
		},
	}

	for _, c := range cases {
		t.Run(c.technique, func(t *testing.T) {
			b := block(t, c.text)
			if r := New(uarch.Haswell(), DefaultOptions()).Profile(b); r.Status != c.withDefault {
				t.Fatalf("full methodology: status %v (err %v), want %v", r.Status, r.Err, c.withDefault)
			}
			opts := DefaultOptions()
			c.toggle(&opts)
			if r := New(uarch.Haswell(), opts).Profile(b); r.Status != c.withToggled {
				t.Fatalf("%s disabled: status %v (err %v), want %v", c.technique, r.Status, r.Err, c.withToggled)
			}
		})
	}

	// DisableSubnormals is quantitative, not a status change: a block that
	// manufactures subnormal products must slow down by around the
	// per-µarch penalty once gradual underflow is allowed (Table II rows
	// 6377.0 vs 65.0).
	t.Run("DisableSubnormals", func(t *testing.T) {
		text := `mov eax, 0x2b8cbccc
			movd xmm15, eax
			movups xmm0, xmmword ptr [rsp]
			mulps xmm0, xmm15`
		b := block(t, text)
		ftz := New(uarch.Haswell(), DefaultOptions()).Profile(b)
		if ftz.Status != StatusOK {
			t.Fatalf("FTZ run: %v (%v)", ftz.Status, ftz.Err)
		}
		opts := DefaultOptions()
		opts.DisableSubnormals = false
		slow := New(uarch.Haswell(), opts).Profile(b)
		if slow.Status != StatusOK {
			t.Fatalf("gradual-underflow run: %v (%v)", slow.Status, slow.Err)
		}
		if slow.Throughput < 2*ftz.Throughput {
			t.Fatalf("subnormal penalty missing: FTZ %.2f vs gradual underflow %.2f",
				ftz.Throughput, slow.Throughput)
		}
	})
}
