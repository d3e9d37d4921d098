package machine

import (
	"fmt"
	"reflect"
	"testing"

	"bhive/internal/cache"
	"bhive/internal/corpus"
	"bhive/internal/exec"
	"bhive/internal/memo"
	"bhive/internal/pipeline"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// What the machine carries across Retarget — the trace's µop graph,
// retimed for the next µarch, and the first warm-up's caches, restored —
// must be exactly what a rebuild and a fresh walk give. These tests pin
// that over the generated suite and pin every point that drops it.

// keyCPUs is every µarch in its stock and perturbed parameterization, in
// the order ProfileEach would serve them.
func keyCPUs() []*uarch.CPU {
	var cpus []*uarch.CPU
	for _, c := range uarch.Extended() {
		cpus = append(cpus, c, c.Perturbed())
	}
	return cpus
}

// resolveOn resolves block on cpu, or returns nil if cpu cannot run it.
func resolveOn(cpu *uarch.CPU, block []x86.Inst) []*memo.PreparedInst {
	arch := memo.For(cpu)
	ents := make([]*memo.PreparedInst, len(block))
	for i := range block {
		if ents[i] = arch.Prepared(&block[i]); ents[i].Err != nil {
			return nil
		}
	}
	return ents
}

// carryCorpus is the generated suite at scale, thinned under -race.
func carryCorpus(scale float64) []corpus.Record {
	recs := corpus.GenerateAll(scale, 7)
	if raceEnabled {
		var thin []corpus.Record
		for i := 0; i < len(recs); i += 16 {
			thin = append(thin, recs[i])
		}
		recs = thin
	}
	return recs
}

// keyRun is one block's monitored run at the profiler's high unroll
// factor on the first key that supports it, with every key's entries.
type keyRun struct {
	p     *Program
	steps []exec.Step
	ents  [][]*memo.PreparedInst
	lead  int
}

// runForKeys resets m and makes the run on it, as ProfileEach does.
func runForKeys(m *Machine, cpus []*uarch.CPU, block []x86.Inst, daz bool) (keyRun, bool) {
	kr := keyRun{ents: make([][]*memo.PreparedInst, len(cpus)), lead: -1}
	for k, c := range cpus {
		if kr.ents[k] = resolveOn(c, block); kr.ents[k] != nil && kr.lead < 0 {
			kr.lead = k
		}
	}
	if kr.lead < 0 {
		return kr, false
	}
	n := len(block)
	lo := min(max((100+n-1)/n, 4), 50)
	m.Reset()
	m.Retarget(cpus[kr.lead], kr.ents[kr.lead])
	kr.p = m.PrepareResolved(unrollInsts(block, 2*lo))
	var err error
	kr.steps, err = m.ExecuteMonitored(kr.p, monitoredState(0x12345600, daz), monitor(m, 0x12345600))
	return kr, err == nil
}

// TestRetimeEqualsBuild checks, over the generated suite on every µarch
// stock and perturbed, that for every ordered pair of keys with the same
// µop shapes the graph built on the first and retimed for the second
// equals a fresh build on the second, array by array — with MXCSR FTZ/DAZ
// set as the protocol does, and cleared so that subnormal items occur.
func TestRetimeEqualsBuild(t *testing.T) {
	recs := carryCorpus(0.01)
	cpus := keyCPUs()
	m := New(cpus[0], 42)
	fresh := make([]pipeline.Graph, len(cpus))
	for _, daz := range []bool{true, false} {
		pairs, mismatched, subnormal := 0, 0, 0
		for bi, r := range recs {
			kr, ok := runForKeys(m, cpus, r.Block.Insts, daz)
			if !ok {
				continue
			}
			for _, st := range kr.steps {
				if st.Subnormal {
					subnormal++
				}
			}
			for k, c := range cpus {
				if kr.ents[k] != nil {
					m.Retarget(c, kr.ents[k])
					fresh[k].Build(c, m.buildItems(kr.p, kr.steps))
				}
			}
			for a := range cpus {
				if kr.ents[a] == nil {
					continue
				}
				m.Retarget(cpus[a], kr.ents[a])
				if g := m.PrepareGraph(kr.p, kr.steps); !g.Equal(&fresh[a]) {
					t.Fatalf("block %d on %s (daz %v): graph differs from a fresh build", bi, cpus[a].Name, daz)
				}
				for b := range cpus {
					if b == a || kr.ents[b] == nil {
						continue
					}
					if !sameShape(kr.ents[a], kr.ents[b]) {
						mismatched++
						continue
					}
					pairs++
					before := m.Work()
					m.Retarget(cpus[b], kr.ents[b])
					g := m.PrepareGraph(kr.p, kr.steps)
					if w := m.Work().Since(before); w.Retimes != 1 || w.Builds != 0 {
						t.Fatalf("block %d %s→%s: %+v, want one retime", bi, cpus[a].Name, cpus[b].Name, w)
					}
					if !g.Equal(&fresh[b]) {
						t.Fatalf("block %d %s→%s (daz %v): retimed graph differs from a fresh build",
							bi, cpus[a].Name, cpus[b].Name, daz)
					}
					m.Retarget(cpus[a], kr.ents[a])
					m.PrepareGraph(kr.p, kr.steps)
				}
			}
		}
		t.Logf("daz %v: %d retimed pairs equal a fresh build, %d pairs differ in shape, %d subnormal steps",
			daz, pairs, mismatched, subnormal)
		if pairs == 0 {
			t.Errorf("daz %v: no shape-compatible pair", daz)
		}
		if !daz && subnormal == 0 {
			t.Errorf("with FTZ/DAZ off no step hit the subnormal path")
		}
	}
}

// TestWarmRestoreEqualsWalk checks that the caches a Retarget-then-
// WarmCaches restores equal, field for field, a cold reset followed by the
// warm-up walk — for every key in turn, Ice Lake's other geometry
// included.
func TestWarmRestoreEqualsWalk(t *testing.T) {
	recs := carryCorpus(0.005)
	cpus := keyCPUs()
	m := New(cpus[0], 42)
	var restores, walks uint64
	var gotI, gotD cache.Cache
	for bi, r := range recs {
		kr, ok := runForKeys(m, cpus, r.Block.Insts, true)
		if !ok {
			continue
		}
		for k, c := range cpus {
			if kr.ents[k] == nil {
				continue
			}
			before := m.Work()
			m.Retarget(c, kr.ents[k])
			m.WarmCaches(kr.p, kr.steps)
			w := m.Work().Since(before)
			restores += w.Restores
			walks += w.Walks
			gotI.CopyFrom(m.L1I)
			gotD.CopyFrom(m.L1D)
			m.L1I.Reset()
			m.L1D.Reset()
			m.walk(kr.p, kr.steps)
			if !reflect.DeepEqual(gotI, *m.L1I) || !reflect.DeepEqual(gotD, *m.L1D) {
				t.Fatalf("block %d on %s (%+v): warmed caches differ from a cold walk", bi, c.Name, w)
			}
			// Leave the caches as a timed run would.
			m.TimeGraph(m.PrepareGraph(kr.p, kr.steps), Config{})
		}
	}
	t.Logf("%d warm-ups restored, %d walked", restores, walks)
	if restores == 0 {
		t.Error("no warm-up was restored")
	}
}

// carrier drives a machine through a call sequence. With carry off it
// drops the carried graph and snapshot before every PrepareGraph and
// WarmCaches, so it always builds and walks: the oracle a carrying
// machine must match.
type carrier struct {
	m     *Machine
	carry bool
	obs   []string
}

func (c *carrier) graph(p *Program, steps []exec.Step) *pipeline.Graph {
	if !c.carry {
		c.m.forget()
	}
	return c.m.PrepareGraph(p, steps)
}

func (c *carrier) warm(p *Program, steps []exec.Step) {
	if !c.carry {
		c.m.forget()
	}
	c.m.WarmCaches(p, steps)
}

// observe prepares the graph and the warm caches for (p, steps), records
// both and the counters of a timed run over them.
func (c *carrier) observe(p *Program, steps []exec.Step) {
	g := c.graph(p, steps)
	c.warm(p, steps)
	s := fmt.Sprintf("graph %v\nL1I %+v\nL1D %+v\n", *g, *c.m.L1I, *c.m.L1D)
	c.obs = append(c.obs, s+fmt.Sprintf("counters %+v", c.m.TimeGraph(g, Config{})))
}

func mustParse(t *testing.T, text string, unroll int) []x86.Inst {
	t.Helper()
	block, err := x86.Parse(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	return unrollInsts(block, unroll)
}

// TestCarryInvalidation runs call sequences that change the program, the
// trace or the memory after a graph and a warm-up were prepared, then
// prepare again after Retarget, and requires the carrying machine to
// match one that never carries. Each sequence leaves exactly one
// invalidation point between the two preparations, so removing any of
// Reset's, PrepareResolved's or ExecuteMonitored's fails it. The carry
// sequence checks that the unchanged case does retime and restore (and
// walks again on Ice Lake's geometry), the shape sequence that a µarch
// with other µop shapes rebuilds.
func TestCarryInvalidation(t *testing.T) {
	hsw := uarch.Haswell()
	hswP := hsw.Perturbed()
	const load = "mov rcx, qword ptr [rax]\nadd rcx, 1\nmov qword ptr [rax+8], rcx"
	ents := func(cpu *uarch.CPU, text string) []*memo.PreparedInst {
		ents := resolveOn(cpu, mustParse(t, text, 1))
		if ents == nil {
			t.Fatalf("%s cannot run %q", cpu.Name, text)
		}
		return ents
	}
	start := func(c *carrier, text string) (*Program, []exec.Step) {
		c.m = New(hsw, 42)
		p, err := c.m.PrepareUnrolled(mustParse(t, text, 8), 3)
		if err != nil {
			t.Fatal(err)
		}
		steps, err := c.m.ExecuteMonitored(p, monitoredState(0x12345600, true), monitor(c.m, 0x12345600))
		if err != nil {
			t.Fatal(err)
		}
		c.observe(p, steps)
		return p, steps
	}
	for _, tc := range []struct {
		name  string
		seq   func(c *carrier)
		carry Work // what the carrying machine must have reused
	}{
		{"carry", func(c *carrier) {
			p, steps := start(c, load)
			c.m.Retarget(hswP, ents(hswP, load))
			c.observe(p, steps)
			c.m.Retarget(uarch.IceLake(), ents(uarch.IceLake(), load))
			c.observe(p, steps)
		}, Work{Retimes: 2, Restores: 1}},
		{"shape", func(c *carrier) {
			// Without move elimination the move issues a µop: the graph
			// has another shape and must be rebuilt.
			const moves = "mov rcx, rax\nadd rcx, 1\nmov rax, rcx"
			noElim := *hsw
			noElim.Name, noElim.MoveElimination = "haswell-no-move-elimination", false
			p, steps := start(c, moves)
			c.m.Retarget(&noElim, ents(&noElim, moves))
			c.observe(p, steps)
		}, Work{Restores: 1}},
		{"ExecuteMonitored", func(c *carrier) {
			p, _ := start(c, load)
			// Rerun from other register values: the loads move to another
			// line of the same page, into the same trace buffer.
			steps, err := c.m.ExecuteMonitored(p, monitoredState(0x12345680, true), monitor(c.m, 0x12345680))
			if err != nil {
				t.Fatal(err)
			}
			c.m.Retarget(hswP, ents(hswP, load))
			c.observe(p, steps)
		}, Work{}},
		{"PrepareResolved", func(c *carrier) {
			const regs = "add eax, ebx\nadd ecx, edx\nadd esi, edi"
			const wide = "add r8, r9\nadd r10, r11\nadd r12, r13"
			c.m = New(hsw, 42)
			p, err := c.m.PrepareUnrolled(mustParse(t, regs, 8), 3)
			if err != nil {
				t.Fatal(err)
			}
			steps, err := c.m.ExecuteMonitored(p, monitoredState(0x12345600, true), nil)
			if err != nil {
				t.Fatal(err)
			}
			c.observe(p, steps)
			// Lay out a block with other registers and longer encodings
			// over the same trace: it touches no memory, so the trace
			// stands for its run too.
			c.m.Retarget(hsw, ents(hsw, wide))
			p = c.m.PrepareResolved(mustParse(t, wide, 8))
			c.m.L1I.Reset()
			c.m.L1D.Reset()
			c.observe(p, steps)
		}, Work{}},
		{"Reset", func(c *carrier) {
			p, steps := start(c, load)
			// A reset machine has no code mapped: the trace's graph and
			// warm-up see no code pages.
			c.m.Reset()
			c.m.Retarget(hswP, ents(hswP, load))
			c.observe(p, steps)
		}, Work{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			carrying, oracle := &carrier{carry: true}, &carrier{}
			tc.seq(carrying)
			tc.seq(oracle)
			for i := range oracle.obs {
				if carrying.obs[i] != oracle.obs[i] {
					t.Errorf("preparation %d differs from a build and walk:\ncarried:\n%s\nrebuilt:\n%s",
						i, carrying.obs[i], oracle.obs[i])
				}
			}
			w := carrying.m.Work()
			if got := (Work{Retimes: w.Retimes, Restores: w.Restores}); got != tc.carry {
				t.Errorf("carried %+v, want %+v", got, tc.carry)
			}
		})
	}
}
