package memo

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

func parse(t testing.TB, text string) *x86.Block {
	t.Helper()
	b, err := x86.ParseBlock(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mixedBlock covers loads, stores, zero idioms, eliminated moves, vector
// and FMA forms (unsupported on Ivy Bridge).
const mixedBlock = `add rax, rbx
	xor ecx, ecx
	mov rdx, qword ptr [rsp+8]
	mov qword ptr [rsp+16], rdx
	mov rsi, rdi
	imul rax, rbx
	adc r8b, r9b
	mulss xmm0, xmm1
	vxorps ymm2, ymm2, ymm2
	vfmadd231ps ymm0, ymm1, ymm2`

// direct derives a PreparedInst without the memo, straight from the
// functions the entry caches.
func direct(cpu *uarch.CPU, in *x86.Inst) *PreparedInst {
	info := new(InstInfo)
	info.Raw, info.EncErr = x86.Encode(*in)
	info.LCP = x86.LengthChangingPrefix(info.Raw)
	info.Addr, info.Data, info.Writes = regSets(in)
	p := &PreparedInst{InstInfo: info}
	p.Desc, p.DescErr = cpu.Describe(in)
	p.RawDesc, p.RawDescErr = cpu.DescribeRaw(in)
	p.Err = info.EncErr
	if p.Err == nil {
		p.Err = p.DescErr
	}
	return p
}

// testBlocks is the hand-written mixed block plus a small generated corpus.
func testBlocks(t testing.TB) []*x86.Block {
	blocks := []*x86.Block{parse(t, mixedBlock)}
	for _, r := range corpus.GenerateAll(0.002, 1) {
		blocks = append(blocks, r.Block)
	}
	return blocks
}

// TestDescribeMatchesDirect checks the µop descriptions of the entries
// against cpu.Describe and cpu.DescribeRaw on every microarchitecture,
// including that an UnsupportedError keeps its type through the memo.
func TestDescribeMatchesDirect(t *testing.T) {
	blocks := testBlocks(t)
	for _, cpu := range uarch.Extended() {
		a := For(cpu)
		for _, b := range blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				desc, descErr := cpu.Describe(in)
				raw, rawErr := cpu.DescribeRaw(in)
				for round := 0; round < 2; round++ {
					e := a.Prepared(in)
					if !reflect.DeepEqual(e.Desc, desc) || !reflect.DeepEqual(e.DescErr, descErr) {
						t.Fatalf("%s/%s: Desc %+v (%v), want %+v (%v)", cpu.Name, in, e.Desc, e.DescErr, desc, descErr)
					}
					if !reflect.DeepEqual(e.RawDesc, raw) || !reflect.DeepEqual(e.RawDescErr, rawErr) {
						t.Fatalf("%s/%s: RawDesc %+v (%v), want %+v (%v)", cpu.Name, in, e.RawDesc, e.RawDescErr, raw, rawErr)
					}
					var ue *uarch.UnsupportedError
					if errors.As(descErr, &ue) != errors.As(e.DescErr, &ue) ||
						errors.As(rawErr, &ue) != errors.As(e.RawDescErr, &ue) {
						t.Fatalf("%s/%s: UnsupportedError lost its type", cpu.Name, in)
					}
				}
			}
		}
	}
}

// TestEncodeMatchesDirect checks the encodings of the entries against
// x86.Encode and x86.LengthChangingPrefix.
func TestEncodeMatchesDirect(t *testing.T) {
	for _, b := range testBlocks(t) {
		for i := range b.Insts {
			in := &b.Insts[i]
			raw, err := x86.Encode(*in)
			lcp := x86.LengthChangingPrefix(raw)
			for round := 0; round < 2; round++ {
				e := Inst(in)
				if !reflect.DeepEqual(e.Raw, raw) || !reflect.DeepEqual(e.EncErr, err) || e.LCP != lcp {
					t.Fatalf("%s: encoding % x (%v, lcp %v), want % x (%v, lcp %v)",
						in, e.Raw, e.EncErr, e.LCP, raw, err, lcp)
				}
			}
		}
	}
}

// TestRegSetsStable checks the register-use sets of the entries against
// the direct derivation, and that repeated lookups hand out the same sets.
func TestRegSetsStable(t *testing.T) {
	for _, b := range testBlocks(t) {
		for i := range b.Insts {
			in := &b.Insts[i]
			addr, data, writes := regSets(in)
			e := Inst(in)
			if !reflect.DeepEqual(e.Addr, addr) || !reflect.DeepEqual(e.Data, data) || !reflect.DeepEqual(e.Writes, writes) {
				t.Fatalf("%s: sets %v/%v/%v, want %v/%v/%v", in, e.Addr, e.Data, e.Writes, addr, data, writes)
			}
			if again := Inst(in); again != e {
				t.Fatalf("%s: repeated lookup returned a different entry", in)
			}
		}
	}
}

// TestPreparedMatchesDirect checks every field of the memo entries against
// the direct derivations over a generated corpus and a hand-written mixed
// block on every microarchitecture, on the miss path (the derivation a
// miss publishes) and on the hit path (repeated lookups return the one
// published pointer). It also checks the key is exact: two instructions
// share a key only if they are equal.
func TestPreparedMatchesDirect(t *testing.T) {
	blocks := testBlocks(t)
	keys := map[instKey]*x86.Inst{}
	for _, cpu := range uarch.Extended() {
		a := For(cpu)
		for _, b := range blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if k, ok := keyOf(in); ok {
					if prev, seen := keys[k]; seen && !reflect.DeepEqual(prev, in) {
						t.Fatalf("key collision: %s and %s", prev, in)
					}
					keys[k] = in
				}
				want := direct(cpu, in)
				if miss := a.prepare(in, instDirect(in)); !reflect.DeepEqual(miss, want) {
					t.Fatalf("%s/%s: miss derivation %+v, want %+v", cpu.Name, in, miss, want)
				}
				got := a.Prepared(in)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: entry %+v, want %+v", cpu.Name, in, got, want)
				}
				if again := a.Prepared(in); again != got {
					t.Fatalf("%s/%s: hit returned a different entry", cpu.Name, in)
				}
				if info := Inst(in); info != got.InstInfo {
					t.Fatalf("%s/%s: µarch entry does not share the instruction entry", cpu.Name, in)
				}
				var ue *uarch.UnsupportedError
				if errors.As(want.DescErr, &ue) != errors.As(got.DescErr, &ue) ||
					errors.As(want.RawDescErr, &ue) != errors.As(got.RawDescErr, &ue) {
					t.Fatalf("%s/%s: UnsupportedError lost its type", cpu.Name, in)
				}
			}
		}
	}
}

// TestUnsupportedMemoized checks that UnsupportedError results are cached
// and still reported as such.
func TestUnsupportedMemoized(t *testing.T) {
	b := parse(t, "vfmadd231ps %ymm1, %ymm2, %ymm3")
	ivb := For(uarch.IvyBridge())
	for round := 0; round < 2; round++ {
		e := ivb.Prepared(&b.Insts[0])
		if _, ok := e.DescErr.(*uarch.UnsupportedError); !ok {
			t.Fatalf("round %d: want UnsupportedError, got %v", round, e.DescErr)
		}
		if e.Err != e.DescErr {
			t.Fatalf("round %d: Err %v, want the description failure", round, e.Err)
		}
	}
	// The same instruction must stay supported on Haswell: the µarch is
	// part of the key.
	if e := For(uarch.Haswell()).Prepared(&b.Insts[0]); e.Err != nil {
		t.Fatalf("haswell fma: %v", e.Err)
	}
}

// TestNoUncacheableFallbacks checks that every instruction of the
// generated corpus has a memo key on every microarchitecture: the
// uncacheable fallback is for malformed instruction values only.
func TestNoUncacheableFallbacks(t *testing.T) {
	recs := corpus.GenerateAll(0.01, 1)
	before := Stats()
	for _, cpu := range uarch.Extended() {
		a := For(cpu)
		for _, r := range recs {
			for i := range r.Block.Insts {
				a.Prepared(&r.Block.Insts[i])
			}
		}
	}
	after := Stats()
	if n := after.Uncacheable - before.Uncacheable; n != 0 {
		t.Fatalf("%d uncacheable lookups over the generated corpus", n)
	}
	if after.Insts == 0 || after.Prepared < after.Insts {
		t.Fatalf("implausible entry counts: %+v", after)
	}
}

// TestUncacheableCounted checks that an instruction the key cannot
// represent is derived directly, correctly, and counted.
func TestUncacheableCounted(t *testing.T) {
	in := x86.NewInst(x86.ADD, x86.RegOp(x86.RAX), x86.RegOp(x86.RBX))
	in.Args[1].Imm = 7 // a field register operands do not use
	if _, ok := keyOf(&in); ok {
		t.Fatal("non-canonical operand got a key")
	}
	cpu := uarch.Haswell()
	before := Stats()
	got := For(cpu).Prepared(&in)
	if n := Stats().Uncacheable - before.Uncacheable; n != 1 {
		t.Fatalf("uncacheable count moved by %d, want 1", n)
	}
	if want := direct(cpu, &in); !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback entry %+v, want %+v", got, want)
	}
}

// freshImm hands out immediates no other lookup has used, so each call
// builds an instruction that misses both tables.
var freshImm atomic.Int64

// TestConcurrentAccess hammers the memo tables from many goroutines; run
// under -race this is the regression test for the shared tables. Then
// goroutines released together miss on the same fresh keys, and all of
// them must receive the one published pointer.
func TestConcurrentAccess(t *testing.T) {
	b := parse(t, mixedBlock)
	cpus := []*uarch.CPU{uarch.IvyBridge(), uarch.Haswell(), uarch.Skylake()}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i := range b.Insts {
					in := &b.Insts[i]
					a := For(cpus[(round+i)%len(cpus)])
					if e := a.Prepared(in); e.EncErr != nil || e.InstInfo != Inst(in) {
						t.Error("inconsistent entry for", in)
					}
				}
			}
		}()
	}
	wg.Wait()

	const workers = 16
	hsw := For(uarch.Haswell())
	for round := 0; round < 20; round++ {
		in := x86.NewInst(x86.ADD, x86.RegOp(x86.RAX), x86.ImmOp(1<<40+freshImm.Add(1)))
		var (
			start = make(chan struct{})
			preps [workers]*PreparedInst
			infos [workers]*InstInfo
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				own := x86.Inst{Op: in.Op, Args: append([]x86.Operand(nil), in.Args...)}
				if w%2 == 0 {
					preps[w] = hsw.Prepared(&own)
					infos[w] = Inst(&own)
				} else {
					infos[w] = Inst(&own)
					preps[w] = hsw.Prepared(&own)
				}
			}()
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			if preps[w] != preps[0] || infos[w] != infos[0] {
				t.Fatalf("round %d: concurrent misses published more than one entry", round)
			}
		}
		if preps[0].InstInfo != infos[0] {
			t.Fatalf("round %d: µarch entry does not share the instruction entry", round)
		}
	}
}

// TestLookupAllocFree pins the hit path at zero allocations.
func TestLookupAllocFree(t *testing.T) {
	b := parse(t, mixedBlock)
	a := For(uarch.Haswell())
	for i := range b.Insts {
		a.Prepared(&b.Insts[i])
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range b.Insts {
			a.Prepared(&b.Insts[i])
			Inst(&b.Insts[i])
		}
	}); n != 0 {
		t.Fatalf("hit path allocates %.1f times per block", n)
	}
}

// BenchmarkMemoLookup times the per-(instruction, µarch) hit path from
// every GOMAXPROCS goroutine at once over a fixed instruction set.
func BenchmarkMemoLookup(b *testing.B) {
	blk := parse(b, mixedBlock)
	a := For(uarch.Haswell())
	for i := range blk.Insts {
		a.Prepared(&blk.Insts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if a.Prepared(&blk.Insts[i%len(blk.Insts)]) == nil {
				b.Error("nil entry")
			}
			i++
		}
	})
}
