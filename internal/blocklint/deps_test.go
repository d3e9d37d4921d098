package blocklint

import (
	"os"
	"slices"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// The string derivation of the def-use facts that computeFacts replaced:
// each instruction's register reads and writes by register name, in
// operand order, then the implicit registers, the CL shift count and the
// flags, chained through maps keyed by name.

func legacyReads(in *x86.Inst) []string {
	var out []string
	for k, a := range in.Args {
		switch a.Kind {
		case x86.KindReg:
			r, w := in.ArgIO(k)
			if r || (w && (a.Reg.Class() == x86.ClassGP8 || a.Reg.Class() == x86.ClassGP16)) {
				out = append(out, a.Reg.Base64().String())
			}
		case x86.KindMem:
			if a.Mem.Base != x86.RegNone && a.Mem.Base != x86.RIP {
				out = append(out, a.Mem.Base.Base64().String())
			}
			if a.Mem.Index != x86.RegNone {
				out = append(out, a.Mem.Index.Base64().String())
			}
		}
	}
	for _, r := range in.Op.ImplicitReads() {
		out = append(out, r.Base64().String())
	}
	switch in.Op {
	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		if len(in.Args) == 2 && in.Args[1].IsReg(x86.CL) {
			out = append(out, x86.RCX.String())
		}
	}
	if in.Op.ReadsFlags() {
		out = append(out, "flags")
	}
	return out
}

func legacyWrites(in *x86.Inst) []string {
	var out []string
	for k, a := range in.Args {
		if a.Kind != x86.KindReg {
			continue
		}
		if _, w := in.ArgIO(k); w {
			out = append(out, a.Reg.Base64().String())
		}
	}
	for _, r := range in.Op.ImplicitWrites() {
		out = append(out, r.Base64().String())
	}
	if in.Op.WritesFlags() {
		out = append(out, "flags")
	}
	return out
}

func legacyDeps(insts []x86.Inst) (defUse []DepEdge, loopCarried []string) {
	finalDef := map[string]int{}
	for i := len(insts) - 1; i >= 0; i-- {
		for _, w := range legacyWrites(&insts[i]) {
			if _, ok := finalDef[w]; !ok {
				finalDef[w] = i
			}
		}
	}
	lastDef := map[string]int{}
	seenEdge := map[DepEdge]bool{}
	for i := range insts {
		for _, r := range legacyReads(&insts[i]) {
			var e DepEdge
			if def, ok := lastDef[r]; ok {
				e = DepEdge{From: def, To: i, Resource: r}
			} else if def, ok := finalDef[r]; ok {
				e = DepEdge{From: def, To: i, Resource: r, Carried: true}
				if !slices.Contains(loopCarried, r) {
					loopCarried = append(loopCarried, r)
				}
			} else {
				continue
			}
			if !seenEdge[e] {
				seenEdge[e] = true
				defUse = append(defUse, e)
			}
		}
		for _, w := range legacyWrites(&insts[i]) {
			lastDef[w] = i
		}
	}
	return defUse, loopCarried
}

// sameSet reports whether a and b hold the same elements, ignoring order
// (neither holds duplicates).
func sameSet[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[T]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

// TestDepFactsMatchLegacy: the def-use edges and loop-carried resources
// read off the memo's register sets are, per (block, µarch), the sets the
// string derivation gave, over the example corpus and a generated suite.
// Edges stay grouped by consumer in block order; within one consumer they
// follow the memo's order (address registers, then data registers), so
// only the order inside a consumer may differ.
func TestDepFactsMatchLegacy(t *testing.T) {
	f, err := os.Open(exampleCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := corpus.ReadCSVRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*x86.Block
	for _, row := range rows {
		if b, err := x86.BlockFromHex(row.Hex); err == nil {
			blocks = append(blocks, b)
		}
	}
	for _, r := range corpus.GenerateAll(0.01, 7) {
		blocks = append(blocks, r.Block)
	}

	checked, reordered := 0, 0
	for _, cpu := range uarch.Extended() {
		a := New(cpu, profiler.DefaultOptions())
		for _, b := range blocks {
			rep := a.Analyze(b)
			if rep.Facts == nil {
				continue
			}
			checked++
			defUse, carried := legacyDeps(b.Insts)
			got := rep.Facts
			if !sameSet(got.DefUse, defUse) || !sameSet(got.LoopCarried, carried) {
				t.Fatalf("%s on %s:\ndef-use %v\n   want %v\ncarried %v\n   want %v",
					b, cpu.Name, got.DefUse, defUse, got.LoopCarried, carried)
			}
			for i := 1; i < len(got.DefUse); i++ {
				if got.DefUse[i].To < got.DefUse[i-1].To {
					t.Fatalf("%s on %s: def-use edges not grouped by consumer: %v", b, cpu.Name, got.DefUse)
				}
			}
			if !slices.Equal(got.DefUse, defUse) || !slices.Equal(got.LoopCarried, carried) {
				reordered++
			}
		}
	}
	t.Logf("%d (block, µarch) reports checked; %d list their edges or carried resources in another order", checked, reordered)
}
