package machine

import (
	"fmt"
	"reflect"
	"testing"

	"bhive/internal/cache"
	"bhive/internal/corpus"
	"bhive/internal/exec"
	"bhive/internal/pipeline"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// pairSetup prepares insts (repeats of their first body instructions) on a
// fresh machine and runs them once, mapping every faulting page onto one
// pattern-filled frame as the profiler's monitor does, and builds the
// run's graph. ok is false when the program cannot be prepared or run.
func pairSetup(cpu *uarch.CPU, insts []x86.Inst, body int) (m *Machine, p *Program, steps []exec.Step, g *pipeline.Graph, ok bool) {
	m, p, steps, ok = monitoredRun(cpu, insts, body, 0x12345600, true)
	if !ok {
		return nil, nil, nil, nil, false
	}
	return m, p, steps, m.PrepareGraph(p, steps), true
}

// monitoredRun is pairSetup's prepare and monitored run, with registers
// and the frame initialized to init and MXCSR FTZ/DAZ set to daz.
func monitoredRun(cpu *uarch.CPU, insts []x86.Inst, body int, init uint64, daz bool) (m *Machine, p *Program, steps []exec.Step, ok bool) {
	m = New(cpu, 42)
	p, err := m.PrepareUnrolled(insts, body)
	if err != nil {
		return nil, nil, nil, false
	}
	steps, err = m.ExecuteMonitored(p, monitoredState(init, daz), monitor(m, init))
	if err != nil {
		return nil, nil, nil, false
	}
	return m, p, steps, true
}

// monitoredState is the profiler's initial architectural state.
func monitoredState(init uint64, daz bool) *exec.State {
	st := &exec.State{FTZ: daz, DAZ: daz}
	st.InitRegisters(init)
	return st
}

// monitor is the profiler's page-fault policy on m: map up to 64 valid
// user pages onto one frame filled with init.
func monitor(m *Machine, init uint64) func(*vm.Fault) bool {
	var frame *vm.PhysPage
	mapped := 0
	return func(f *vm.Fault) bool {
		if !vm.ValidUserAddress(f.Addr) || mapped >= 64 {
			return false
		}
		if frame == nil {
			frame = m.AS.NewPhysPage()
			frame.Fill(uint32(init))
		}
		m.AS.Map(f.Addr, frame)
		mapped++
		return true
	}
}

// Slice returns a program of p's first n instructions, sharing its
// prepared metadata and code mapping: the prefix occupies the same
// addresses. The tests time such a prefix on its own, as the oracle of
// the one-pass derivation (TimeGraphPair) and of Graph.Slice.
func (p *Program) Slice(n int) *Program {
	return &Program{Insts: p.Insts[:n], Addrs: p.Addrs[:n+1], entries: p.entries}
}

// checkPair times the program and its first nLo instructions in one pass
// (TimeGraphPair) and checks the result against the two timed one at a
// time, in the profiler's former order: warm-up and timed run of the whole
// program, then warm-up of the prefix and its timed run. Both start from
// cold caches. The pair's full-program counters must always match; ok
// must be true exactly when the full run missed in neither cache and the
// prefix is proper, and then the derived prefix counters must match too.
// It returns ok.
func checkPair(t *testing.T, label string, m *Machine, p *Program, steps []exec.Step, g *pipeline.Graph, nLo int) bool {
	t.Helper()
	reset := func() {
		m.L1I.Reset()
		m.L1D.Reset()
	}
	reset()
	m.WarmCaches(p, steps)
	hi, lo, ok := m.TimeGraphPair(g, nLo)

	reset()
	m.WarmCaches(p, steps)
	want := m.TimeGraph(g, Config{})
	if hi != want {
		t.Errorf("%s: pair full run %+v != single run %+v", label, hi, want)
	}
	missed := want.L1DReadMisses+want.L1DWriteMisses+want.L1IMisses > 0
	if wantOK := !missed && 0 < nLo && nLo < len(p.Insts); ok != wantOK {
		t.Errorf("%s: pair ok = %v, want %v (missed %v, nLo %d of %d)",
			label, ok, wantOK, missed, nLo, len(p.Insts))
	}
	if !ok {
		if lo != (pipeline.Counters{}) {
			t.Errorf("%s: pair not derived but returned prefix counters %+v", label, lo)
		}
		return false
	}
	m.WarmCaches(p.Slice(nLo), steps[:nLo])
	gLo := g.Slice(nLo)
	if wantLo := m.TimeGraph(&gLo, Config{}); lo != wantLo {
		t.Errorf("%s: derived prefix run %+v != standalone %+v", label, lo, wantLo)
	}
	return true
}

// checkPairEvent times the program and its first nLo instructions in one
// pass, from warm caches, on the timed route (the in-order pass where
// exact) and on the event scheduler alone, and requires the same pair and
// the same L1D after it (scheduling reads the L1I only through the fetch
// pass both share).
func checkPairEvent(t *testing.T, label string, m *Machine, p *Program, steps []exec.Step, g *pipeline.Graph, nLo int) {
	t.Helper()
	var got [2]cache.Cache
	var hi, lo [2]pipeline.Counters
	var ok [2]bool
	for k := range got {
		m.L1I.Reset()
		m.L1D.Reset()
		m.WarmCaches(p, steps)
		if k == 0 {
			hi[k], lo[k], ok[k] = m.TimeGraphPair(g, nLo)
		} else {
			hi[k], lo[k], ok[k] = pipeline.SimulateEvent(m.CPU, g, nLo, m.L1I, m.L1D, m.pipelineConfig())
		}
		got[k].CopyFrom(m.L1D)
	}
	if hi[0] != hi[1] || lo[0] != lo[1] || ok[0] != ok[1] {
		t.Errorf("%s: pair (%+v, %+v, ok=%v) != event scheduler's (%+v, %+v, ok=%v)", label, hi[0], lo[0], ok[0], hi[1], lo[1], ok[1])
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("%s: pair leaves another L1D than the event scheduler", label)
	}
}

// TestTimeGraphPairCorpus pins the one-pass derivation of the low unroll
// factor over the generated suite on every microarchitecture, at the
// profiler's unroll factors: the derived low-factor counters equal a
// standalone run of the prefix whenever the pair is derived, and the pair
// is derived exactly when the high run hits.
func TestTimeGraphPairCorpus(t *testing.T) {
	recs := corpus.GenerateAll(0.02, 7)
	for _, cpu := range uarch.Extended() {
		derived, runs := 0, 0
		for i, r := range recs {
			block := r.Block.Insts
			n := len(block)
			// The profiler's derived-throughput factors
			// (profiler.Options.UnrollFactors).
			lo := min(max((100+n-1)/n, 4), 50)
			m, p, steps, g, ok := pairSetup(cpu, unrollInsts(block, 2*lo), n)
			if !ok {
				continue
			}
			runs++
			if checkPair(t, fmt.Sprintf("%s/%d", cpu.Name, i), m, p, steps, g, n*lo) {
				derived++
			}
			if t.Failed() {
				t.FailNow()
			}
		}
		t.Logf("%s: %d of %d pairs derived", cpu.Name, derived, runs)
		if derived == 0 {
			t.Errorf("%s: no pair derived", cpu.Name)
		}
	}

	// The suite's blocks all hit; this one does not derive: an unroll
	// that overflows the L1I misses in the full run.
	var big string
	for i := 0; i < 30; i++ {
		big += "vfmadd231ps ymm0, ymm1, ymm2\nvaddps ymm6, ymm4, ymm5\nadd rax, 1\n"
	}
	block, err := x86.Parse(big, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	const unroll = 100
	m, p, steps, g, ok := pairSetup(uarch.Haswell(), unrollInsts(block, unroll), len(block))
	if !ok {
		t.Fatalf("%d-instruction block does not run", len(block))
	}
	if checkPair(t, "icache-overflow", m, p, steps, g, len(block)*unroll/2) {
		t.Error("icache-overflow: pair derived")
	}
}

// TestInOrderMatchesEvent checks, over the generated suite on every µarch
// stock and perturbed, that the timed route's pair run — the in-order
// pass wherever it is exact — equals the event scheduler's alone: the
// high and low counters, ok, and the caches left behind, on the warm
// caches the profiler times on and once more on the caches that run
// left. The suite is 0.01 of the paper's, 0.001 under -short and -race.
func TestInOrderMatchesEvent(t *testing.T) {
	scale := 0.01
	if testing.Short() || raceEnabled {
		scale = 0.001
	}
	recs := corpus.GenerateAll(scale, 7)
	cpus := keyCPUs()
	m := New(cpus[0], 42)
	var snapI, snapD, gotI, gotD cache.Cache
	var paths pipeline.SchedCounters
	for bi, r := range recs {
		block := r.Block.Insts
		n := len(block)
		kr, ok := runForKeys(m, cpus, block, true)
		if !ok {
			continue
		}
		nLo := n * min(max((100+n-1)/n, 4), 50)
		for k, c := range cpus {
			if kr.ents[k] == nil {
				continue
			}
			m.Retarget(c, kr.ents[k])
			g := m.PrepareGraph(kr.p, kr.steps)
			m.L1I.Reset()
			m.L1D.Reset()
			m.WarmCaches(kr.p, kr.steps)
			before := m.Work().Sched
			for rep := 0; rep < 2; rep++ {
				snapI.CopyFrom(m.L1I)
				snapD.CopyFrom(m.L1D)
				hi, lo, ok := m.TimeGraphPair(g, nLo)
				gotI.CopyFrom(m.L1I)
				gotD.CopyFrom(m.L1D)
				m.L1I.CopyFrom(&snapI)
				m.L1D.CopyFrom(&snapD)
				eHi, eLo, eOK := pipeline.SimulateEvent(c, g, nLo, m.L1I, m.L1D, m.pipelineConfig())
				if hi != eHi || lo != eLo || ok != eOK {
					t.Fatalf("block %d on %s (run %d): (%+v, %+v, %v) != event scheduler's (%+v, %+v, %v)",
						bi, c.Name, rep, hi, lo, ok, eHi, eLo, eOK)
				}
				if !reflect.DeepEqual(gotI, *m.L1I) || !reflect.DeepEqual(gotD, *m.L1D) {
					t.Fatalf("block %d on %s (run %d): caches differ from the event scheduler's", bi, c.Name, rep)
				}
			}
			for p, v := range m.Work().Sched.Sub(before) {
				paths[p] += v
			}
		}
	}
	t.Logf("timed runs %s", paths)
	if paths[pipeline.PathInOrder] == 0 || paths[pipeline.PathInOrder] < 10*paths.Fallbacks() {
		t.Errorf("the in-order pass timed too few runs: %s", paths)
	}
}
