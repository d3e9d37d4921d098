package models

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/uarch"
)

// derivedByEvent is the oracle: derivedPrediction's arithmetic over two
// event-loop runs, k and 2k copies, of wire's 2k-copy arena.
func derivedByEvent(insts []simInst, width, nports, blockLen int) (c1, c2 int64, tp float64, err error) {
	k := unrollFor(blockLen)
	s := new(simScratch)
	s.wire(insts, 2*k, nports)
	if c1, err = s.run(insts, k, width, nports, nil); err != nil {
		return 0, 0, 0, err
	}
	if c2, err = s.run(insts, 2*k, width, nports, nil); err != nil {
		return 0, 0, 0, err
	}
	tp = float64(c2-c1) / float64(k)
	if tp < 0 {
		tp = float64(c2) / float64(2*k)
	}
	return c1, c2, tp, nil
}

// checkDerived requires derivedPrediction to equal the event-loop oracle,
// cycles and errors alike, and a pass that claims the block in order to
// report the oracle's c(k) and c(2k). It returns the pass's path.
func checkDerived(t *testing.T, label string, insts []simInst, width, nports, blockLen int) schedPath {
	t.Helper()
	c1, c2, want, wantErr := derivedByEvent(insts, width, nports, blockLen)
	s := new(simScratch)
	g1, g2, path := s.inOrder(insts, unrollFor(blockLen), width, nports)
	if path == pathInOrder && (wantErr != nil || g1 != c1 || g2 != c2) {
		t.Fatalf("%s: in-order c(k), c(2k) = %d, %d; event loop %d, %d (%v)", label, g1, g2, c1, c2, wantErr)
	}
	got, err := s.derivedPrediction(insts, width, nports, blockLen)
	if !errors.Is(err, wantErr) || (wantErr != nil) != (err != nil) {
		t.Fatalf("%s: derivedPrediction error %v, event loop %v", label, err, wantErr)
	}
	if got != want {
		t.Fatalf("%s: derivedPrediction %v, event loop %v", label, got, want)
	}
	return path
}

// TestEventPairFork checks the fork of the k-copy run off the 2k-copy
// run against derivedByEvent's two separate runs, cycles and errors
// alike: on a block whose k-copy run issues its last µop while its
// trailing zero-µop instructions still wait to allocate, and on random
// synthetic blocks, wild ones included, whether or not the in-order pass
// would have claimed them.
func TestEventPairFork(t *testing.T) {
	check := func(label string, insts []simInst, width, nports int) *simScratch {
		t.Helper()
		k := unrollFor(len(insts))
		c1, c2, _, wantErr := derivedByEvent(insts, width, nports, len(insts))
		s := new(simScratch)
		s.template(insts, 2*k, uarch.PortSet(1)<<nports-1)
		g1, g2, err := s.eventPair(insts, k, width, nports)
		if err != wantErr || g1 != c1 || g2 != c2 {
			t.Fatalf("%s: eventPair c(k), c(2k) = %d, %d (%v); two runs %d, %d (%v)", label, g1, g2, err, c1, c2, wantErr)
		}
		return s
	}

	tail := []simInst{{uops: []simUop{{ports: uarch.Ports(0), class: uarch.ClassIntALU}}, fused: 1}}
	for range 8 {
		tail = append(tail, simInst{fused: 1, zeroIdiom: true})
	}
	if s := check("zero-µop tail", tail, 4, 2); !s.fork.done {
		t.Fatal("zero-µop tail: the k-copy run did not end before its allocation stopped")
	}

	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 40)
	for i := range 3000 {
		rng.Read(data)
		width, nports := 1+rng.Intn(6), 1+rng.Intn(10)
		insts := synthInsts(data[:1+rng.Intn(len(data))], width, nports)
		if rng.Intn(4) == 0 {
			insts = synthInsts(data, width+1, min(nports+2, 16))
		}
		if len(insts) > 0 {
			check(fmt.Sprintf("synthetic %d", i), insts, width, nports)
		}
	}
}

// FuzzDerivedPrediction drives synthetic blocks — random port sets,
// latencies 0–250, occupancies, loads, zero idioms and eliminated moves —
// through derivedPrediction and the two-run event-loop oracle. With the
// wild bit set the block is built for a wider machine than it runs on, so
// over-wide instructions and portless µops reach the fallback. Zero
// divergences is a merge requirement for any change to the in-order pass.
func FuzzDerivedPrediction(f *testing.F) {
	f.Add([]byte{0x13, 0x07, 0x01, 0x03, 0x22, 0x10, 0x05, 0x41}, uint8(4), uint8(6), false)
	f.Add([]byte{0x80, 0x00, 0x00, 0x02, 0x90, 0x31, 0x05, 0x01, 0x17, 0xF0}, uint8(4), uint8(8), false)
	f.Add([]byte{0x25, 0xFF, 0x60, 0x5A, 0x02, 0x00, 0x11, 0x03, 0x44, 0x09, 0xC3}, uint8(5), uint8(10), true)
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x02, 0x01}, uint8(2), uint8(3), false)
	f.Add([]byte{0x11, 0x01, 0x01, 0x01, 0x01, 0x03, 0x00, 0x11, 0x02, 0x01, 0x04, 0x01, 0x00, 0x11, 0x00, 0x00, 0x04, 0x01, 0x01, 0x05}, uint8(3), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, widthB, nportsB uint8, wild bool) {
		width := 1 + int(widthB)%6
		nports := 1 + int(nportsB)%10
		insts := synthInsts(data, width, nports)
		if wild {
			insts = synthInsts(data, width+1, min(nports+2, 16))
		}
		if len(insts) == 0 {
			return
		}
		checkDerived(t, "fuzz", insts, width, nports, len(insts))
	})
}

// TestDerivedPredictionCorpus compares derivedPrediction with the
// event-loop oracle over generated corpus blocks on every
// microarchitecture, under each simulator-backed model's table options.
func TestDerivedPredictionCorpus(t *testing.T) {
	scale := 0.01
	if testing.Short() || raceEnabled {
		scale = 0.001
	}
	recs := corpus.GenerateAll(scale, 7)
	var paths [3]int
	for _, cpu := range uarch.Extended() {
		pure := NewIACA(cpu).opts // no table perturbation
		pure.perturbProb, pure.vecProb, pure.divBug = 0, 0, false
		for _, o := range []struct {
			name string
			opts tableOpts
		}{
			{"IACA", NewIACA(cpu).opts},
			{"llvm-mca", NewLLVMMCA(cpu).opts},
			{"IACA-pure", pure},
		} {
			for bi := range recs {
				b := recs[bi].Block
				insts, err := buildSimInsts(cpu, b, o.opts, false)
				if err != nil {
					continue // outside this µarch's tables
				}
				label := fmt.Sprintf("%s/%s/block %d", cpu.Name, o.name, bi)
				paths[checkDerived(t, label, insts, cpu.IssueWidth, cpu.NumPorts, len(b.Insts))]++
			}
		}
	}
	t.Logf("in order %d, occupancy conflicts %d, other fallbacks %d", paths[pathInOrder], paths[pathConflict], paths[pathOther])
	if paths[pathInOrder] < 100 || paths[pathInOrder] < 4*paths[pathConflict] {
		t.Fatalf("in-order pass took only %d of %d predictions", paths[pathInOrder], paths[pathInOrder]+paths[pathConflict]+paths[pathOther])
	}
}

// arenaEdges returns each µop's producer ids in a wired arena.
func arenaEdges(s *simScratch) [][]int32 {
	out := make([][]int32, len(s.uops))
	e := int32(0)
	for id, u := range s.uops {
		out[id] = slices.Clone(s.deps[e : e+u.deps])
		e += u.deps
	}
	return out
}

// explicitWire wires every copy register by register, with no template.
func explicitWire(insts []simInst, copies, nports int) *simScratch {
	s := new(simScratch)
	var lastWriter [simRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	for k := 0; k < len(insts)*copies; k++ {
		s.wireInst(&insts[k%len(insts)], k, &lastWriter, uarch.PortSet(1)<<nports-1)
	}
	s.start = append(s.start, int32(len(s.uops)))
	return s
}

// templateEdges expands the template built for copies copies into each
// µop's producer ids, the way the in-order pass reads them.
func templateEdges(s *simScratch, insts []simInst, copies, nports int) [][]int32 {
	tmpl := s.template(insts, copies, uarch.PortSet(1)<<nports-1)
	U := int(s.start[len(insts)])
	var out [][]int32
	for c := 0; c < copies; c++ {
		tc := min(c, tmpl)
		shift := int32((c - tc) * U)
		e := s.copyEdge[tc]
		for j := 0; j < U; j++ {
			u := s.uops[tc*U+j]
			var ps []int32
			for _, p := range s.deps[e : e+u.deps] {
				ps = append(ps, p+shift)
			}
			out = append(out, ps)
			e += u.deps
		}
	}
	return out
}

// checkTemplate requires the template's producer edges, as the in-order
// pass reads them, and wire's arena to equal an explicit wiring of every
// copy. It returns the template copy.
func checkTemplate(t *testing.T, label string, insts []simInst, copies, nports int) int {
	t.Helper()
	ex := explicitWire(insts, copies, nports)
	want := arenaEdges(ex)
	var ts simScratch
	got := templateEdges(&ts, insts, copies, nports)
	tmpl := len(ts.copyEdge) - 2
	var ws simScratch
	ws.wire(insts, copies, nports)
	if !slices.Equal(ws.start, ex.start) || !slices.Equal(ws.uops, ex.uops) {
		t.Fatalf("%s: wire's instructions or µops differ from an explicit wiring", label)
	}
	for name, edges := range map[string][][]int32{"template": got, "wire": arenaEdges(&ws)} {
		if len(edges) != len(want) {
			t.Fatalf("%s: %s yields %d µops, explicit wiring %d", label, name, len(edges), len(want))
		}
		for id := range want {
			if !slices.Equal(edges[id], want[id]) {
				t.Fatalf("%s: µop %d: %s producers %v, explicit %v", label, id, name, edges[id], want[id])
			}
		}
	}
	return tmpl
}

// TestTemplateEdges pins the one-iteration template, and the arena
// unrolled from it, against an explicit wiring of every copy: over corpus
// blocks, and over an eliminated-move chain whose last-writer state takes
// four copies to repeat.
func TestTemplateEdges(t *testing.T) {
	hsw := uarch.Haswell()
	chain := parse(t, "mov rax, rbx\nmov rbx, rcx\nmov rcx, rdx\nadd rdx, 1\nadd rsi, rax")
	insts, err := buildSimInsts(hsw, chain, NewIACA(hsw).opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl := checkTemplate(t, "elim chain", insts, 24, hsw.NumPorts); tmpl != 4 {
		t.Fatalf("elim chain: template copy %d, want 4 (a three-copy alias chain after copy 0)", tmpl)
	}
	if tmpl := checkTemplate(t, "elim chain, 3 copies", insts, 3, hsw.NumPorts); tmpl != 2 {
		t.Fatalf("elim chain, 3 copies: template copy %d, want the last copy, 2", tmpl)
	}
	checkDerived(t, "elim chain", insts, hsw.IssueWidth, hsw.NumPorts, len(chain.Insts))

	scale := 0.002
	if testing.Short() {
		scale = 0.0005
	}
	recs := corpus.GenerateAll(scale, 7)
	for _, cpu := range []*uarch.CPU{hsw, uarch.Skylake()} {
		for _, opts := range []tableOpts{NewIACA(cpu).opts, NewLLVMMCA(cpu).opts} {
			for bi := range recs {
				insts, err := buildSimInsts(cpu, recs[bi].Block, opts, false)
				if err != nil {
					continue
				}
				checkTemplate(t, fmt.Sprintf("%s/%s/block %d", cpu.Name, opts.salt, bi), insts, 24, cpu.NumPorts)
			}
		}
	}
}

// TestSchedStats pins the counters: a plain block stays in order, a
// block whose non-pipelined µop would block an older µop's port runs on
// the event loop as an occupancy conflict, and the eliminated-move chain
// of TestTemplateEdges counts its three extra prologue copies.
func TestSchedStats(t *testing.T) {
	plain := []simInst{
		{uops: []simUop{{ports: uarch.Ports(0, 1), lat: 1}}, fused: 1, data: []uint8{0}, writes: []uint8{0}},
	}
	// The divide issues on port 0 in cycle 1, the cycle after the
	// multiply, and holds the port for eight cycles. The add, older than
	// the divide, waits for the multiply until cycle 3 and wants port 0
	// inside that window.
	conflict := []simInst{
		{uops: []simUop{{ports: uarch.Ports(0), lat: 3}}, fused: 1, writes: []uint8{1}},
		{uops: []simUop{{ports: uarch.Ports(0), lat: 1}}, fused: 1, data: []uint8{1}, writes: []uint8{2}},
		{uops: []simUop{{ports: uarch.Ports(0), lat: 8, occ: 8}}, fused: 1, writes: []uint8{3}},
	}
	hsw := uarch.Haswell()
	elim, err := buildSimInsts(hsw, parse(t, "mov rax, rbx\nmov rbx, rcx\nmov rcx, rdx\nadd rdx, 1\nadd rsi, rax"), NewIACA(hsw).opts, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		insts []simInst
		want  SchedCounters
	}{
		{"plain", plain, SchedCounters{InOrder: 1}},
		{"conflict", conflict, SchedCounters{OccupancyFallbacks: 1}},
		{"elim chain", elim, SchedCounters{InOrder: 1, LongPrologue: 3}},
	} {
		before := SchedStats()
		checkDerived(t, tc.name, tc.insts, 4, 6, len(tc.insts))
		after := SchedStats()
		got := SchedCounters{
			InOrder:            after.InOrder - before.InOrder,
			OccupancyFallbacks: after.OccupancyFallbacks - before.OccupancyFallbacks,
			OtherFallbacks:     after.OtherFallbacks - before.OtherFallbacks,
			LongPrologue:       after.LongPrologue - before.LongPrologue,
		}
		if got != tc.want {
			t.Errorf("%s: counters moved by %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
