package machine

import (
	"fmt"
	"testing"

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

// checkPair times the program and its first nLo instructions in one pass
// (TimeGraphPair) and checks the result against the two timed one at a
// time, in the profiler's former order: warm-up and timed run of the whole
// program, then warm-up of the prefix and its timed run. Both start from
// cold caches. The pair's full-program counters must always match; ok
// must be true exactly when the full run missed in neither cache, with
// context switches off and a proper prefix, and then the derived prefix
// counters must match too. It returns ok.
func checkPair(t *testing.T, label string, m *Machine, p *Program, steps []exec.Step, g *pipeline.Graph, nLo int, cfg Config, seed int64) bool {
	t.Helper()
	reset := func() {
		m.L1I.Reset()
		m.L1D.Reset()
		m.Rand.Seed(seed)
	}
	reset()
	m.WarmCaches(p, steps)
	hi, lo, ok := m.TimeGraphPair(g, nLo, cfg)

	reset()
	m.WarmCaches(p, steps)
	want := m.TimeGraph(g, cfg)
	if hi != want {
		t.Errorf("%s: pair full run %+v != single run %+v", label, hi, want)
	}
	missed := want.L1DReadMisses+want.L1DWriteMisses+want.L1IMisses > 0
	if wantOK := !missed && cfg.SwitchRate == 0 && 0 < nLo && nLo < len(p.Insts); ok != wantOK {
		t.Errorf("%s: pair ok = %v, want %v (missed %v, switches %v, nLo %d of %d)",
			label, ok, wantOK, missed, cfg.SwitchRate > 0, nLo, len(p.Insts))
	}
	if !ok {
		if lo != (pipeline.Counters{}) {
			t.Errorf("%s: pair not derived but returned prefix counters %+v", label, lo)
		}
		return false
	}
	m.WarmCaches(p.Slice(nLo), steps[:nLo])
	gLo := g.Slice(nLo)
	if wantLo := m.TimeGraph(&gLo, cfg); lo != wantLo {
		t.Errorf("%s: derived prefix run %+v != standalone %+v", label, lo, wantLo)
	}
	return true
}

// TestTimeGraphPairCorpus pins the one-pass derivation of the low unroll
// factor over the generated suite on every microarchitecture and both
// front ends, at the profiler's unroll factors: the derived low-factor
// counters equal a standalone run of the prefix whenever the pair is
// derived, and the pair is derived exactly when the high run hits.
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
			for _, cfg := range []Config{{}, {ModeledFrontEnd: true, LoopBody: n}} {
				label := fmt.Sprintf("%s/%d/modeled=%v", cpu.Name, i, cfg.ModeledFrontEnd)
				runs++
				if checkPair(t, label, m, p, steps, g, n*lo, cfg, 42) {
					derived++
				}
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

	// The suite's blocks all hit; these do not derive. An unroll that
	// overflows the L1I misses in the full run, and context switches
	// would make the prefix run draw its own arrivals.
	cpu := uarch.Haswell()
	var big string
	for i := 0; i < 30; i++ {
		big += "vfmadd231ps ymm0, ymm1, ymm2\nvaddps ymm6, ymm4, ymm5\nadd rax, 1\n"
	}
	for _, tc := range []struct {
		text   string
		unroll int
		cfg    Config
	}{
		{big, 100, Config{}},
		{big, 100, Config{ModeledFrontEnd: true, LoopBody: 90}},
		{"mov qword ptr [rsp+8], rcx\nmov al, byte ptr [rsp+8]\nadd rax, 1", 40,
			Config{SwitchRate: 0.005, SwitchCost: 2000}},
	} {
		block, err := x86.Parse(tc.text, x86.SyntaxAuto)
		if err != nil {
			t.Fatal(err)
		}
		m, p, steps, g, ok := pairSetup(cpu, unrollInsts(block, tc.unroll), len(block))
		if !ok {
			t.Fatalf("%d-instruction block does not run", len(block))
		}
		label := fmt.Sprintf("%d insts x %d, %+v", len(block), tc.unroll, tc.cfg)
		if checkPair(t, label, m, p, steps, g, len(block)*tc.unroll/2, tc.cfg, 42) {
			t.Errorf("%s: pair derived", label)
		}
	}
}
