package bound

import (
	"math"
	"os"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/memo"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

func block(t *testing.T, hexStr string) *x86.Block {
	t.Helper()
	b, err := x86.BlockFromHex(hexStr)
	if err != nil {
		t.Fatalf("decode %s: %v", hexStr, err)
	}
	return b
}

func mustFromPrepared(t *testing.T, cpu *uarch.CPU, entries []*memo.PreparedInst) *Bounds {
	t.Helper()
	bs, err := FromPrepared(cpu, entries)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func analyze(t *testing.T, cpu *uarch.CPU, hexStr string) *Bounds {
	t.Helper()
	bs, err := Analyze(cpu, block(t, hexStr))
	if err != nil {
		t.Fatalf("analyze %s: %v", hexStr, err)
	}
	return bs
}

// TestKnownChains pins the dependence term on hand-analyzable blocks.
func TestKnownChains(t *testing.T) {
	hsw := uarch.Haswell()
	cases := []struct {
		hex     string
		dep     float64
		verdict Verdict
	}{
		// add rax, rbx: carried 1-cycle chain on rax.
		{"4801d8", 1, VerdictDepChain},
		// imul rax, rax: carried 3-cycle multiply chain.
		{"480fafc0", 3, VerdictDepChain},
		// xor ecx, ecx: zero idiom, no chain; front-end binds.
		{"31c9", 0, VerdictFrontEnd},
		// mov rax, [rax]: address-carried load chain at L1 latency.
		{"488b00", 4, VerdictDepChain},
	}
	for _, c := range cases {
		bs := analyze(t, hsw, c.hex)
		if math.Abs(bs.DepChain-c.dep) > 1e-6 {
			t.Errorf("%s: dep chain %.4f, want %.4f", c.hex, bs.DepChain, c.dep)
		}
		if bs.Verdict != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.hex, bs.Verdict, c.verdict)
		}
		if bs.Lower > bs.Upper {
			t.Errorf("%s: lower %.4f > upper %.4f", c.hex, bs.Lower, bs.Upper)
		}
	}
}

// TestVerdictTies pins the tie order on blocks from the generated corpus
// (GenerateAll(0.03, 7)): when terms are exactly equal the dependence term
// loses to the port term, which beats the front-end term.
func TestVerdictTies(t *testing.T) {
	hsw := uarch.Haswell()
	cases := []struct {
		name, hex string
		verdict   Verdict
	}{
		// lea r10,[r12+r14*8+0xc5] ; add r9,r9 — the carried add chain
		// (1 cycle) ties the three-component LEA's port 1 (1 cycle).
		{"dep = port", "4f8d94f4c50000004d01c9", VerdictPort},
		// xor r9,0x59 ; sub rdx,0x21 ; movzx r11d,byte ptr [rbx+0x1db] —
		// the 1-cycle carried chains tie 16 code bytes of fetch.
		{"dep = fetch", "4983f1594883ea21440fb69bdb010000", VerdictFrontEnd},
		// lea r15,[rax+0x8] ; vxorps xmm7,xmm7,xmm7 ; or r11,0x8 ;
		// mov rcx,[rbx] — the carried or chain (1 cycle) ties 4 fused
		// µops at width 4; 15 code bytes keep fetch below both.
		{"dep = allocation", "4c8d7808c5c057ff4983cb08488b0b", VerdictFrontEnd},
	}
	for _, c := range cases {
		bs, err := Analyze(hsw, block(t, c.hex))
		if err != nil {
			t.Fatal(err)
		}
		if bs.DepChain != bs.Lower {
			t.Fatalf("%s: dep %v no longer ties the lower bound %v", c.name, bs.DepChain, bs.Lower)
		}
		if bs.Verdict != c.verdict {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, bs.Verdict, c.verdict, *bs)
		}
	}
}

// TestRenameAwareness pins the rename special cases: an eliminated move
// aliases its destination into the source's chain, and a zero idiom breaks
// the chain it overwrites.
func TestRenameAwareness(t *testing.T) {
	hsw := uarch.Haswell()

	// imul rax,rax ; mov rbx,rax ; add rax,rbx — the move is eliminated,
	// so the cycle is imul(3) + add(1) = 4 per iteration through rax.
	withMove := analyze(t, hsw, "480fafc04889c34801d8")
	if math.Abs(withMove.DepChain-4) > 1e-6 {
		t.Errorf("eliminated move: dep %.4f, want 4", withMove.DepChain)
	}

	// xor eax,eax ; add rax,rbx — the zero idiom kills the carried rax
	// chain; only the (free) same-iteration edge remains.
	broken := analyze(t, hsw, "31c04801d8")
	if broken.DepChain != 0 {
		t.Errorf("zero idiom: dep %.4f, want 0", broken.DepChain)
	}
}

// TestLeaNoAddrDependence pins the simulator quirk the model mirrors: an
// LEA has no load µop, so its address registers are not dependences and a
// carried lea rax,[rax+8] chain is free.
func TestLeaNoAddrDependence(t *testing.T) {
	hsw := uarch.Haswell()
	bs := analyze(t, hsw, "488d4008") // lea rax, [rax+8]
	if bs.DepChain != 0 {
		t.Errorf("lea addr chain: dep %.4f, want 0 (sim wires addr deps only into load µops)", bs.DepChain)
	}
}

// TestPortVerdict pins the port term: an unpipelined 64-bit divide
// occupies its port for the full occupancy.
func TestPortVerdict(t *testing.T) {
	hsw := uarch.Haswell()
	bs := analyze(t, hsw, "48f7f3") // div rbx
	if bs.PortPressure < 50 {
		t.Errorf("div port pressure %.2f, want ~95 (unpipelined divider occupancy)", bs.PortPressure)
	}
	if bs.Lower < 50 {
		t.Errorf("div lower %.2f, want ~95", bs.Lower)
	}
}

// TestFrontEndVerdict pins the front-end term: NOPs have no chains and no
// execution ports, so allocation width is the only constraint.
func TestFrontEndVerdict(t *testing.T) {
	hsw := uarch.Haswell()
	// 16 NOPs: 16 fused µops / width 4 = 4 cycles; 16 bytes / 16 = 1.
	bs := analyze(t, hsw, "90909090909090909090909090909090")
	if bs.Verdict != VerdictFrontEnd {
		t.Fatalf("verdict %s, want FrontEnd", bs.Verdict)
	}
	if math.Abs(bs.FrontEnd-4) > 1e-6 {
		t.Errorf("front-end %.4f, want 4", bs.FrontEnd)
	}
}

// TestVacuous pins the Generic-descriptor plumbing through FromPrepared.
func TestVacuous(t *testing.T) {
	hsw := uarch.Haswell()
	b := block(t, "4801d8")
	e := *memo.For(hsw).Prepared(&b.Insts[0]) // a copy: entries are shared
	sh := *e.Shape                            // and so are their shapes
	e.Shape = &sh
	if e.DescErr != nil {
		t.Fatal(e.DescErr)
	}
	if got := mustFromPrepared(t, hsw, []*memo.PreparedInst{&e}); got.Vacuous {
		t.Fatal("table-backed descriptor marked vacuous")
	}
	e.Desc.Generic = true
	if got := mustFromPrepared(t, hsw, []*memo.PreparedInst{&e}); !got.Vacuous {
		t.Fatal("generic descriptor not marked vacuous")
	}
}

// TestEmptyAndUnsupported pins the error paths.
func TestEmptyAndUnsupported(t *testing.T) {
	if _, err := Analyze(uarch.Haswell(), &x86.Block{}); err == nil {
		t.Error("empty block accepted")
	}
	// vfmadd231ps needs FMA, absent on Ivy Bridge.
	b := block(t, "c4e26db8d9")
	if _, err := Analyze(uarch.IvyBridge(), b); err == nil {
		t.Error("FMA on Ivy Bridge accepted")
	}
}

// corpusBlocks decodes the lint fixture corpus (skipping the deliberately
// undecodable pathological rows).
func corpusBlocks(t *testing.T) []*x86.Block {
	t.Helper()
	f, err := os.Open("../blocklint/testdata/example_corpus.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raws, err := corpus.ReadCSVRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*x86.Block
	for _, r := range raws {
		if b, err := x86.BlockFromHex(r.Hex); err == nil {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) < 500 {
		t.Fatalf("fixture corpus shrank to %d decodable blocks", len(blocks))
	}
	return blocks
}

// TestLowerLeUpperCorpus is the lattice property over the whole fixture
// corpus on all three microarchitectures: every analyzable block satisfies
// 0 ≤ each lower term ≤ lower ≤ upper, and lower is exactly the max of its
// terms.
func TestLowerLeUpperCorpus(t *testing.T) {
	blocks := corpusBlocks(t)
	for _, cpu := range uarch.All() {
		for _, b := range blocks {
			bs, err := Analyze(cpu, b)
			if err != nil {
				continue // unsupported on this µarch
			}
			hexStr, _ := b.Hex()
			if bs.DepChain < 0 || bs.PortPressure < 0 || bs.FrontEnd < 0 {
				t.Fatalf("%s/%s: negative term %+v", cpu.Name, hexStr, bs)
			}
			wantLower := math.Max(bs.DepChain, math.Max(bs.PortPressure, bs.FrontEnd))
			if math.Abs(bs.Lower-wantLower) > 1e-9 {
				t.Fatalf("%s/%s: lower %.6f != max of terms %.6f", cpu.Name, hexStr, bs.Lower, wantLower)
			}
			if bs.Lower > bs.Upper+1e-9 {
				t.Fatalf("%s/%s: lower %.6f > upper %.6f", cpu.Name, hexStr, bs.Lower, bs.Upper)
			}
			if math.IsNaN(bs.Lower) || math.IsInf(bs.Lower, 0) ||
				math.IsNaN(bs.Upper) || math.IsInf(bs.Upper, 0) {
				t.Fatalf("%s/%s: non-finite bounds %+v", cpu.Name, hexStr, bs)
			}
		}
	}
}

// raiseLats returns copies of entries with every µop latency raised by
// delta (saturating at the uint8 ceiling); the shared entries and their
// shared shapes are left untouched.
func raiseLats(entries []*memo.PreparedInst, delta int) []*memo.PreparedInst {
	out := make([]*memo.PreparedInst, len(entries))
	for i, e := range entries {
		c := *e
		sh := *e.Shape
		c.Shape = &sh
		c.Desc.Uops = make([]uarch.Uop, len(e.Desc.Uops))
		copy(c.Desc.Uops, e.Desc.Uops)
		for j := range c.Desc.Uops {
			if c.Desc.Uops[j].Lat > 0 {
				v := int(c.Desc.Uops[j].Lat) + delta
				if v > 255 {
					v = 255
				}
				c.Desc.Uops[j].Lat = uint8(v)
			}
		}
		out[i] = &c
	}
	return out
}

// TestMonotonicity is the differential property: raising any latency table
// entry never decreases the lower bound (the dependence term is an exact
// maximum over cycles whose weights are monotone in the µop latencies, and
// the port and front-end terms ignore latency).
func TestMonotonicity(t *testing.T) {
	blocks := corpusBlocks(t)
	hsw := uarch.Haswell()
	checked := 0
	for _, b := range blocks {
		entries := make([]*memo.PreparedInst, len(b.Insts))
		ok := true
		for i := range b.Insts {
			entries[i] = memo.For(hsw).Prepared(&b.Insts[i])
			if entries[i].DescErr != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		base := mustFromPrepared(t, hsw, entries)
		for _, delta := range []int{1, 3} {
			raised := mustFromPrepared(t, hsw, raiseLats(entries, delta))
			if raised.Lower < base.Lower {
				hexStr, _ := b.Hex()
				t.Fatalf("%s: raising latencies by %d dropped lower %.6f -> %.6f",
					hexStr, delta, base.Lower, raised.Lower)
			}
			if raised.Upper < base.Upper {
				hexStr, _ := b.Hex()
				t.Fatalf("%s: raising latencies by %d dropped upper %.6f -> %.6f",
					hexStr, delta, base.Upper, raised.Upper)
			}
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d blocks checked", checked)
	}
}

// TestVerdictStrings pins the rendering used by bhive-lint -bounds and the
// boundcheck tables.
func TestVerdictStrings(t *testing.T) {
	if s := VerdictDepChain.String(); s != "DepChain" {
		t.Error(s)
	}
	if s := VerdictFrontEnd.String(); s != "FrontEnd" {
		t.Error(s)
	}
	b := &Bounds{Verdict: VerdictPort, Ports: uarch.Ports(0, 1)}
	if s := b.VerdictString(); s != "Port(p01)" {
		t.Error(s)
	}
}
