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
	sh := new(Shape)
	sh.Desc, sh.DescErr = cpu.Describe(in)
	sh.RawDesc, sh.RawDescErr = cpu.DescribeRaw(in)
	p := &PreparedInst{InstInfo: info, Shape: sh, Err: info.EncErr}
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

// reads reports whether the entry for the one-instruction listing text
// reads GPR r (by its pipeline id, the 64-bit register number).
func reads(t *testing.T, text string, r x86.Reg) bool {
	t.Helper()
	e := Inst(&parse(t, text).Insts[0])
	for _, id := range e.Data {
		if int(id) == r.Num() {
			return true
		}
	}
	return false
}

// TestDivReadsDividend: DIV reads its implicit dividend RDX:RAX besides
// its explicit divisor.
func TestDivReadsDividend(t *testing.T) {
	for _, r := range []x86.Reg{x86.RAX, x86.RDX, x86.RCX} {
		if !reads(t, "div ecx", r) {
			t.Errorf("div ecx does not read %s", r)
		}
	}
}

// TestSubRegisterWriteReadsOld: an 8- or 16-bit destination write merges
// into the old register value, so it reads it; 32- and 64-bit writes
// replace it (a 32-bit write zero-extends) and do not.
func TestSubRegisterWriteReadsOld(t *testing.T) {
	for _, tc := range []struct {
		text  string
		reads bool
	}{
		{"mov al, 5", true},
		{"mov ah, 5", true},
		{"mov ax, 5", true},
		{"mov eax, 5", false},
		{"mov rax, 5", false},
	} {
		if got := reads(t, tc.text, x86.RAX); got != tc.reads {
			t.Errorf("%s reads rax = %v, want %v", tc.text, got, tc.reads)
		}
	}
}

// TestShiftCountReadsCL: a shift by CL reads RCX; a shift by an
// immediate does not.
func TestShiftCountReadsCL(t *testing.T) {
	if !reads(t, "shl rax, cl", x86.RCX) {
		t.Error("shl rax, cl does not read rcx")
	}
	if reads(t, "shl rax, 3", x86.RCX) {
		t.Error("shl rax, 3 reads rcx")
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
				r := newRec(in)
				if miss := a.prepare(&r.in, &r.info); !reflect.DeepEqual(miss, want) {
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

// TestShapesShared checks the shape interning on each microarchitecture:
// entries whose descriptions are equal and error-free share one *Shape,
// and an entry whose shape carries an error shares it with no other entry.
func TestShapesShared(t *testing.T) {
	blocks := testBlocks(t)
	for _, cpu := range uarch.Extended() {
		a := For(cpu)
		var shared []*Shape
		owned := map[*Shape]*x86.Inst{}
		entries := 0
		for _, b := range blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				e := a.Prepared(in)
				entries++
				if e.DescErr != nil || e.RawDescErr != nil {
					if prev, ok := owned[e.Shape]; ok && !reflect.DeepEqual(prev, in) {
						t.Fatalf("%s: %s and %s share a shape carrying an error", cpu.Name, prev, in)
					}
					owned[e.Shape] = in
					continue
				}
				found := false
				for _, s := range shared {
					if reflect.DeepEqual(*s, *e.Shape) {
						if s != e.Shape {
							t.Fatalf("%s/%s: equal descriptions in two shapes", cpu.Name, in)
						}
						found = true
						break
					}
				}
				if !found {
					shared = append(shared, e.Shape)
				}
			}
		}
		for _, s := range shared {
			if _, ok := owned[s]; ok {
				t.Fatalf("%s: an erroring entry shares a published shape", cpu.Name)
			}
		}
		t.Logf("%s: %d entries over %d shared shapes and %d erroring ones", cpu.Name, entries, len(shared), len(owned))
	}
	if s := Stats(); s.Shapes == 0 || s.Shapes > s.Prepared {
		t.Fatalf("implausible shape count: %+v", s)
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
// represent gets an id from the side map, a correct entry, and one count
// per lookup.
func TestUncacheableCounted(t *testing.T) {
	in := x86.NewInst(x86.ADD, x86.RegOp(x86.RAX), x86.RegOp(x86.RBX))
	in.Args[1].Imm = 7 // a field register operands do not use
	if _, ok := keyOf(&in); ok {
		t.Fatal("non-canonical operand got a key")
	}
	cpu := uarch.Haswell()
	a := For(cpu)
	for round := 0; round < 2; round++ {
		before := Stats()
		got := a.Prepared(&in)
		if n := Stats().Uncacheable - before.Uncacheable; n != 1 {
			t.Fatalf("round %d: uncacheable count moved by %d, want 1", round, n)
		}
		if want := direct(cpu, &in); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fallback entry %+v, want %+v", round, got, want)
		}
	}
	// The side map is exact: the canonical form and another stray value
	// are different instructions.
	canon := x86.NewInst(x86.ADD, x86.RegOp(x86.RAX), x86.RegOp(x86.RBX))
	other := x86.NewInst(x86.ADD, x86.RegOp(x86.RAX), x86.RegOp(x86.RBX))
	other.Args[1].Imm = 8
	id := Intern(&in)
	if Intern(&in) != id || Intern(&canon) == id || Intern(&other) == id {
		t.Fatal("side-map ids are not exact per instruction")
	}
}

// freshImm hands out immediates no other lookup has used, so each call
// builds an instruction that misses both tables.
var freshImm atomic.Int64

// fresh returns an instruction no other lookup has used.
func fresh() x86.Inst {
	return x86.NewInst(x86.ADD, x86.RegOp(x86.RAX), x86.ImmOp(1<<40+freshImm.Add(1)))
}

// TestConcurrentAccess hammers the memo tables from many goroutines; run
// under -race this is the regression test for the shared tables. Then
// goroutines released together miss on the same fresh keys, and all of
// them must receive the one published pointer. Last, they miss together on
// fresh instructions whose ids straddle a chunk boundary, so the record
// and per-µarch directories grow under contention.
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

	// Fill the ids up to span/2 below the next chunk boundary, then
	// release the goroutines onto span fresh instructions, each starting
	// at a different one.
	const span = 64
	boundary := (nextID.Load()/chunkSize + 1) * chunkSize
	for nextID.Load() < boundary-span/2 {
		in := fresh()
		Intern(&in)
	}
	if d := hsw.preps.dir.Load(); d != nil && len(*d) > int(boundary/chunkSize) {
		t.Fatalf("the Haswell table already covers id %d", boundary)
	}
	// A chunk never moves: an entry published before the growth keeps
	// its slot.
	oldID := Intern(&b.Insts[0])
	oldSlot, oldRec := hsw.preps.slot(oldID), recs.slot(oldID)
	base := ID(nextID.Load())
	insts := make([]x86.Inst, span)
	for i := range insts {
		insts[i] = fresh()
	}
	var (
		start = make(chan struct{})
		ids   [workers][span]ID
		infos [workers][span]*InstInfo
		preps [workers][span]*PreparedInst
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := range insts {
				i := (j + w*span/workers) % span
				own := x86.Inst{Op: insts[i].Op, Args: append([]x86.Operand(nil), insts[i].Args...)}
				id := Intern(&own)
				ids[w][i], infos[w][i], preps[w][i] = id, Inst(&own), hsw.At(id)
			}
		}()
	}
	close(start)
	wg.Wait()
	seen := map[ID]bool{}
	for i := range insts {
		id := ids[0][i]
		for w := 1; w < workers; w++ {
			if ids[w][i] != id || infos[w][i] != infos[0][i] || preps[w][i] != preps[0][i] {
				t.Fatalf("%s: concurrent misses published more than one id or entry", &insts[i])
			}
		}
		if id < base || id >= base+span || seen[id] {
			t.Fatalf("%s: id %d is not one of the dense ids %d..%d", &insts[i], id, base, base+span-1)
		}
		seen[id] = true
		if preps[0][i].InstInfo != infos[0][i] {
			t.Fatalf("%s: µarch entry does not share the instruction entry", &insts[i])
		}
		if Intern(&insts[i]) != id || hsw.At(id) != preps[0][i] || Inst(&insts[i]) != infos[0][i] {
			t.Fatalf("%s: id or entry changed after publication", &insts[i])
		}
	}
	if n := ID(nextID.Load()); n != base+span {
		t.Fatalf("%d ids handed out for %d instructions", n-base, span)
	}
	if hsw.preps.slot(oldID) != oldSlot || recs.slot(oldID) != oldRec || oldSlot.Load() != hsw.Prepared(&b.Insts[0]) {
		t.Fatal("directory growth moved a published entry")
	}
	for name, c := range map[string]int{"record": len(*recs.dir.Load()), "Haswell": len(*hsw.preps.dir.Load())} {
		if c <= int(boundary/chunkSize) {
			t.Fatalf("the %s directory did not grow past id %d", name, boundary)
		}
	}

	// Last, goroutines released together miss on distinct instructions
	// with one description, on a table with no shape published yet: all
	// of them must receive the one published shape.
	for round := 0; round < 20; round++ {
		a := &Arch{cpu: uarch.Haswell()}
		var (
			start  = make(chan struct{})
			shapes [workers]*Shape
		)
		ids := make([]ID, workers)
		for w := range ids {
			in := fresh()
			ids[w] = Intern(&in)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				shapes[w] = a.At(ids[w]).Shape
			}()
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			if shapes[w] != shapes[0] {
				t.Fatalf("round %d: concurrent misses on one description published more than one shape", round)
			}
		}
		if shapes[0].DescErr != nil || len(a.shapes) != 1 {
			t.Fatalf("round %d: %d shapes published (error %v), want one", round, len(a.shapes), shapes[0].DescErr)
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

// TestResolve pins Resolve against per-instruction lookups: it appends
// one entry per instruction in block order, past a failed entry (vfmadd
// on Ivy Bridge), and allocates nothing into a large enough dst.
func TestResolve(t *testing.T) {
	b := parse(t, mixedBlock)
	a := For(uarch.IvyBridge())
	head := &PreparedInst{}
	got := a.Resolve([]*PreparedInst{head}, b)
	if len(got) != 1+len(b.Insts) || got[0] != head {
		t.Fatalf("Resolve returned %d entries, want dst's one plus %d", len(got), len(b.Insts))
	}
	for i := range b.Insts {
		if got[1+i] != a.Prepared(&b.Insts[i]) {
			t.Fatalf("entry %d differs from Prepared", i)
		}
	}
	if last := got[len(got)-1]; last.DescErr == nil {
		t.Fatalf("want the FMA form unsupported on Ivy Bridge")
	}
	dst := make([]*PreparedInst, 0, len(b.Insts))
	if n := testing.AllocsPerRun(100, func() { dst = a.Resolve(dst[:0], b) }); n != 0 {
		t.Fatalf("Resolve allocates %.1f times per block", n)
	}
}

// corpusBlocks returns the blocks of GenerateAll(scale, 7).
func corpusBlocks(scale float64) []*x86.Block {
	var blocks []*x86.Block
	for _, r := range corpus.GenerateAll(scale, 7) {
		blocks = append(blocks, r.Block)
	}
	return blocks
}

// TestIDPathMatchesDirect checks the id path over a generated corpus on
// every microarchitecture: At(Intern(in)) equals the direct derivation,
// and ResolveIDs over InternBlock hands out the entries Prepared does.
func TestIDPathMatchesDirect(t *testing.T) {
	scale := 0.01
	if testing.Short() || raceEnabled {
		scale = 0.001
	}
	blocks := corpusBlocks(scale)
	var (
		ids  []ID
		ents []*PreparedInst
	)
	for _, cpu := range uarch.Extended() {
		a := For(cpu)
		for _, b := range blocks {
			ids = InternBlock(ids[:0], b)
			ents = a.ResolveIDs(ents[:0], ids)
			if len(ids) != len(b.Insts) || len(ents) != len(b.Insts) {
				t.Fatalf("%d ids and %d entries for %d instructions", len(ids), len(ents), len(b.Insts))
			}
			for i := range b.Insts {
				in := &b.Insts[i]
				if got, want := a.At(Intern(in)), direct(cpu, in); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: entry %+v, want %+v", cpu.Name, in, got, want)
				}
				if ents[i] != a.Prepared(in) {
					t.Fatalf("%s/%s: ResolveIDs entry differs from Prepared", cpu.Name, in)
				}
			}
		}
	}
}

// TestResolveIDsAllocs pins the id path at zero allocations on a warm
// corpus-scale block set: interning each block and resolving it on every
// microarchitecture.
func TestResolveIDsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	blocks := corpusBlocks(0.01)
	var archs []*Arch
	for _, cpu := range uarch.All() {
		archs = append(archs, For(cpu))
	}
	var (
		ids  []ID
		ents []*PreparedInst
	)
	pass := func() {
		for _, b := range blocks {
			ids = InternBlock(ids[:0], b)
			for _, a := range archs {
				ents = a.ResolveIDs(ents[:0], ids)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(3, pass); n != 0 {
		t.Fatalf("the id path allocates %.1f times per pass over %d blocks", n, len(blocks))
	}
}

// TestSharedShapeMissAllocs pins a miss on an instruction whose shape is
// already published: it allocates the 32-byte entry and Describe's µop
// slice, and no shape.
func TestSharedShapeMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const runs = 100
	cpu := uarch.Haswell()
	a := For(cpu)
	insts := make([]x86.Inst, runs+2)
	ids := make([]ID, len(insts))
	for i := range insts {
		insts[i] = fresh()
		ids[i] = Intern(&insts[i])
	}
	a.preps.slot(ids[len(ids)-1]) // grow the directory outside the count
	shape := a.At(ids[0]).Shape
	describe := testing.AllocsPerRun(runs, func() { cpu.Describe(&insts[0]) })
	next := 1
	n := testing.AllocsPerRun(runs, func() {
		if a.At(ids[next]).Shape != shape {
			t.Fatal("an instruction of a published shape got its own")
		}
		next++
	})
	if want := 1 + describe; n != want {
		t.Fatalf("a miss on a published shape allocates %.1f times, want %.1f (the entry and Describe's %.1f)", n, want, describe)
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

// BenchmarkMemoResolveCorpus times one warm lookup per (instruction,
// µarch) over GenerateAll(0.03, 7) on uarch.All(), block by block as
// Resolve walks it: the hashed path (Prepared, which interns each time)
// against the id path (At on ids interned once per block beforehand).
// Unlike BenchmarkMemoLookup's ten instructions, the corpus's entries and
// id maps do not stay in the CPU caches.
func BenchmarkMemoResolveCorpus(b *testing.B) {
	blocks := corpusBlocks(0.03)
	var archs []*Arch
	for _, cpu := range uarch.All() {
		archs = append(archs, For(cpu))
	}
	ids := make([][]ID, len(blocks))
	lookups := 0
	for i, blk := range blocks {
		ids[i] = InternBlock(nil, blk)
		for _, a := range archs {
			a.ResolveIDs(nil, ids[i])
		}
		lookups += len(ids[i]) * len(archs)
	}
	perLookup := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lookups), "ns/lookup")
	}
	b.Run("hashed", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for _, blk := range blocks {
				for _, a := range archs {
					for i := range blk.Insts {
						sink = a.Prepared(&blk.Insts[i])
					}
				}
			}
		}
		perLookup(b)
	})
	b.Run("ids", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for _, blk := range ids {
				for _, a := range archs {
					for _, id := range blk {
						sink = a.At(id)
					}
				}
			}
		}
		perLookup(b)
	})
}

// sink keeps the benchmarks' lookups live.
var sink *PreparedInst
