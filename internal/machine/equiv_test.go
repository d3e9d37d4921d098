package machine

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"bhive/internal/exec"
	"bhive/internal/pipeline"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// The differential harness for the two pipeline schedulers: the retained
// cycle-by-cycle reference loop (pipeline.SimulateReference, an oracle
// only tests call) and the event-driven one every timed run takes. They
// are required to be bit-identical — same Counters on every run,
// including cache-state evolution across runs and the context-switch RNG
// draw sequence. The deterministic tests sweep curated scenarios;
// FuzzSimulateEquivalence explores random block compositions.

// equivPool is the instruction vocabulary fuzz inputs select from. It is
// chosen to reach every scheduler feature: dependence chains, zero idioms,
// eliminated moves, loads, stores (full and partial overlap for
// forwarding/commit stalls), line splits, pointer chases, the non-pipelined
// divider, FP and FMA work, and multi-µop RMW memory ops.
var equivPool = []string{
	"add rax, rbx",
	"add rbx, 1",
	"imul rcx, rdx",
	"xor edx, edx", // zero idiom
	"mov rax, rbx", // eliminated move
	"mov rcx, qword ptr [rsp+8]",
	"mov qword ptr [rsp+8], rcx",
	"mov qword ptr [rsp+12], rax", // partially overlaps the qword at +8
	"mov rdx, qword ptr [rsp+12]",
	"mov al, byte ptr [rsp+8]", // contained in the store above: forwardable
	"mov rax, qword ptr [rax]", // pointer chase
	"xor rdx, qword ptr [rax+0x3c]",
	"movzx eax, al",
	"addss xmm0, xmm1",
	"mulsd xmm2, xmm3",
	"vfmadd231ps ymm0, ymm1, ymm2", // unsupported on Ivy Bridge
	"div ecx",
	"nop",
	"cmp rcx, rdi",
	"shr rdx, 8",
	"lea rax, [rbx+rcx*2]",
}

var equivCPUs = []func() *uarch.CPU{uarch.Haswell, uarch.Skylake, uarch.IvyBridge, uarch.IceLake}

// equivCounters runs the full measurement motion — prepare, fault-driven
// page mapping, functional execution, then three timing runs (cold, warm,
// and a third that advances any switch RNG) — on a fresh machine with the
// chosen scheduler, and returns the counters of every run. The base config
// carries switch injection and the front-end mode; reference selects the
// scheduler. ok is false if the input cannot be prepared or
// executed; that decision is taken before any timing happens, so it cannot
// differ between schedulers.
func equivCounters(cpu *uarch.CPU, insts []x86.Inst, base Config, reference bool) (out [3]pipeline.Counters, ok bool) {
	m := New(cpu, 42)
	p, err := m.Prepare(insts)
	if err != nil {
		return out, false
	}
	frame := m.AS.NewPhysPage()
	frame.Fill(0x12345600)
	newState := func() *exec.State {
		st := &exec.State{FTZ: true, DAZ: true}
		st.InitRegisters(0x12345600)
		return st
	}
	mapped := false
	for tries := 0; tries < 64; tries++ {
		if _, err := m.Execute(p, newState()); err == nil {
			mapped = true
			break
		} else if f, isFault := err.(*vm.Fault); isFault {
			m.AS.Map(f.Addr, frame)
		} else {
			return out, false
		}
	}
	if !mapped {
		return out, false
	}
	steps, err := m.Execute(p, newState())
	if err != nil {
		return out, false
	}
	if reference {
		for i := range out {
			out[i] = pipeline.SimulateReference(m.CPU, m.buildItems(p, steps), m.L1I, m.L1D, m.pipelineConfig(base))
		}
		return out, true
	}
	g := m.PrepareGraph(p, steps)
	for i := range out {
		out[i] = m.TimeGraph(g, base)
	}
	return out, true
}

// checkEquivalence drives one block through both schedulers and fails the
// test on any counter divergence.
func checkEquivalence(t *testing.T, label string, cpu *uarch.CPU, insts []x86.Inst, base Config) {
	t.Helper()
	ref, okRef := equivCounters(cpu, insts, base, true)
	evt, okEvt := equivCounters(cpu, insts, base, false)
	if okRef != okEvt {
		t.Fatalf("%s: schedulers disagree on runnability: reference=%v event=%v", label, okRef, okEvt)
	}
	if !okRef {
		return
	}
	for i := range ref {
		if ref[i] != evt[i] {
			t.Errorf("%s: run %d diverges:\n  reference %+v\n  event     %+v", label, i, ref[i], evt[i])
		}
	}
}

func unrollInsts(block []x86.Inst, unroll int) []x86.Inst {
	insts := make([]x86.Inst, 0, len(block)*unroll)
	for i := 0; i < unroll; i++ {
		insts = append(insts, block...)
	}
	return insts
}

// TestSimulateEquivalenceCorpus pins the scheduler equivalence on curated
// scenarios so plain `go test` (no fuzzing) still exercises the
// differential check: every pool instruction alone, classic interaction
// pairs, an I-cache-overflowing unroll, and context-switch injection.
func TestSimulateEquivalenceCorpus(t *testing.T) {
	for ci, mk := range equivCPUs {
		cpu := mk()
		for pi, text := range equivPool {
			block, err := x86.Parse(text, x86.SyntaxAuto)
			if err != nil {
				t.Fatalf("parse %q: %v", text, err)
			}
			checkEquivalence(t, cpu.Name+"/"+text, cpu, unrollInsts(block, 24), Config{})
			if ci == 0 && pi%3 == 0 {
				checkEquivalence(t, cpu.Name+"/"+text+"/switchy", cpu,
					unrollInsts(block, 24), Config{SwitchRate: 0.02, SwitchCost: 700})
			}
			if pi%4 == 0 {
				checkEquivalence(t, cpu.Name+"/"+text+"/modeled-fe", cpu,
					unrollInsts(block, 24), Config{ModeledFrontEnd: true, LoopBody: len(block)})
			}
		}
	}

	cpu := uarch.Haswell()
	scenarios := []string{
		// Store→load forwarding and partial-overlap commit stalls.
		"mov qword ptr [rsp+8], rcx\nmov al, byte ptr [rsp+8]\nmov rdx, qword ptr [rsp+12]",
		// Divider occupancy against independent ALU work.
		"xor edx, edx\ndiv ecx\nadd rbx, 1\nadd rdi, 1",
		// The paper's CRC case study shape: chain through a table load.
		"add rdi, 1\nmov eax, edx\nshr rdx, 8\nmovzx eax, al\nxor rdx, qword ptr [rax*8+0x4110a]\ncmp rcx, rdi",
		// Zero idiom + eliminated move breaking a chain.
		"imul rcx, rdx\nxor edx, edx\nmov rdx, rcx\nadd rdx, 1",
		// Read-modify-write: the load must not wait on its own store,
		// and the next copy's load forwards from it.
		"add qword ptr [rsp+8], rax\nmov rcx, qword ptr [rsp+8]\nadd rax, 1",
	}
	for _, text := range scenarios {
		block, err := x86.Parse(text, x86.SyntaxAuto)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		for _, unroll := range []int{1, 7, 40} {
			checkEquivalence(t, text, cpu, unrollInsts(block, unroll), Config{})
		}
		checkEquivalence(t, text+"/switchy", cpu, unrollInsts(block, 40), Config{SwitchRate: 0.005, SwitchCost: 2000})
		checkEquivalence(t, text+"/modeled-fe", cpu, unrollInsts(block, 40),
			Config{ModeledFrontEnd: true, LoopBody: len(block)})
	}

	// Large unroll overflowing the L1I: fetch stalls and steady-state
	// I-cache misses under both schedulers.
	var big string
	for i := 0; i < 30; i++ {
		big += "vfmadd231ps ymm0, ymm1, ymm2\nvaddps ymm6, ymm4, ymm5\nadd rax, 1\n"
	}
	block, err := x86.Parse(big, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "icache-overflow", cpu, unrollInsts(block, 100), Config{})
	checkEquivalence(t, "icache-overflow/modeled-fe", cpu, unrollInsts(block, 100),
		Config{ModeledFrontEnd: true, LoopBody: len(block)})
}

// TestTimeGraphMatchesTime pins the prefix view the profiler's hi→lo
// derivation relies on: a graph prepared from the sliced program and its
// trace prefix must time exactly as a prefix view of the whole program's
// prepared graph.
func TestTimeGraphMatchesTime(t *testing.T) {
	cpu := uarch.Haswell()
	text := "add rdi, 1\nmov eax, edx\nshr rdx, 8\nmovzx eax, al\nxor rdx, qword ptr [rax*8+0x4110a]\ncmp rcx, rdi"
	block, err := x86.Parse(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := len(block)

	setup := func() (*Machine, *Program, []exec.Step) {
		m := New(cpu, 17)
		p, err := m.Prepare(unrollInsts(block, 16))
		if err != nil {
			t.Fatal(err)
		}
		frame := m.AS.NewPhysPage()
		frame.Fill(0x12345600)
		newState := func() *exec.State {
			st := &exec.State{FTZ: true, DAZ: true}
			st.InitRegisters(0x12345600)
			return st
		}
		for tries := 0; tries < 64; tries++ {
			_, err := m.Execute(p, newState())
			if err == nil {
				break
			}
			f, isFault := err.(*vm.Fault)
			if !isFault {
				t.Fatal(err)
			}
			m.AS.Map(f.Addr, frame)
		}
		steps, err := m.Execute(p, newState())
		if err != nil {
			t.Fatal(err)
		}
		return m, p, steps
	}

	for _, slice := range []int{16 * n, 5 * n} {
		mA, pA, stepsA := setup()
		gA := mA.PrepareGraph(pA.Slice(slice), stepsA[:slice])
		want := [2]pipeline.Counters{
			mA.TimeGraph(gA, Config{}),
			mA.TimeGraph(gA, Config{}),
		}
		mB, pB, stepsB := setup()
		g := mB.PrepareGraph(pB, stepsB).Slice(slice)
		got := [2]pipeline.Counters{
			mB.TimeGraph(&g, Config{}),
			mB.TimeGraph(&g, Config{}),
		}
		if got != want {
			t.Errorf("slice %d: prefix view %+v != sliced program %+v", slice, got, want)
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite the legacy-counters golden file")

// TestLegacyCountersGolden pins the exact warm-run counters of the legacy
// (default) front end on every pool block for every µarch against a
// committed golden file: any change to default-mode simulation — however
// indirect, e.g. through front-end refactoring — shows up as a byte diff
// here, not just as drift in aggregated harness tables. Regenerate with
// `go test ./internal/machine -run LegacyCountersGolden -update-golden`
// only when a simulator change is intentional.
func TestLegacyCountersGolden(t *testing.T) {
	var sb strings.Builder
	for _, mk := range equivCPUs {
		cpu := mk()
		for pi, text := range equivPool {
			block, err := x86.Parse(text, x86.SyntaxAuto)
			if err != nil {
				t.Fatalf("parse %q: %v", text, err)
			}
			out, ok := equivCounters(cpu, unrollInsts(block, 16), Config{}, false)
			if !ok {
				fmt.Fprintf(&sb, "%s %2d unsupported  # %s\n", cpu.Name, pi, text)
				continue
			}
			fmt.Fprintf(&sb, "%s %2d %+v  # %s\n", cpu.Name, pi, out[1], text)
		}
	}
	const path = "testdata/legacy_counters.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if string(want) != sb.String() {
		t.Errorf("legacy counters drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, sb.String())
	}
}

// FuzzSimulateEquivalence drives randomly composed, corpus-flavored blocks
// through the reference and event-driven schedulers and requires identical
// Counters on every run. It also times each program with a random prefix
// in one pass (TimeGraphPair) against the two timed one at a time, and
// retargets each program to a perturbed µarch and to Ice Lake against a
// fresh build there (checkRetarget). Zero divergences is a merge
// requirement for any scheduler change.
func FuzzSimulateEquivalence(f *testing.F) {
	f.Add([]byte{0, 5, 6, 9}, uint8(16), uint8(0), uint8(32))
	f.Add([]byte{16, 3, 1, 1}, uint8(8), uint8(4), uint8(16))
	f.Add([]byte{6, 7, 8, 9, 10}, uint8(24), uint8(2), uint8(61))
	f.Add([]byte{13, 14, 15, 2}, uint8(12), uint8(7), uint8(24))
	f.Add([]byte{10, 10, 11}, uint8(30), uint8(5), uint8(0))
	f.Add([]byte{0, 5, 6, 9}, uint8(16), uint8(12), uint8(33))   // modeled FE, haswell
	f.Add([]byte{13, 14, 15, 2}, uint8(12), uint8(15), uint8(8)) // modeled FE, icelake
	f.Add([]byte{16, 3, 1, 1}, uint8(8), uint8(19), uint8(20))   // modeled FE + switches
	f.Fuzz(func(t *testing.T, sel []byte, unrollByte, mode, cut uint8) {
		if len(sel) == 0 || len(sel) > 12 {
			return
		}
		cpu := equivCPUs[int(mode)%len(equivCPUs)]()
		var cfg Config
		switch (int(mode) / len(equivCPUs)) % 3 {
		case 1:
			cfg.SwitchRate, cfg.SwitchCost = 0.01, 500
		case 2:
			cfg.SwitchRate, cfg.SwitchCost = 0.0004, 12000
		}
		var block []x86.Inst
		for _, b := range sel {
			insts, err := x86.Parse(equivPool[int(b)%len(equivPool)], x86.SyntaxAuto)
			if err != nil {
				t.Fatalf("pool parse: %v", err)
			}
			block = append(block, insts...)
		}
		if (int(mode)/(len(equivCPUs)*3))%2 == 1 {
			cfg.ModeledFrontEnd, cfg.LoopBody = true, len(block)
		}
		unroll := 1 + int(unrollByte)%32
		insts := unrollInsts(block, unroll)
		if len(insts) > 384 {
			insts = insts[:384]
		}
		checkEquivalence(t, "fuzz", cpu, insts, cfg)

		// The one-pass pair at a random prefix length (0 is no prefix).
		if m, p, steps, g, ok := pairSetup(cpu, insts, len(block)); ok {
			checkPair(t, "fuzz pair", m, p, steps, g, int(cut)%len(insts), cfg, 42)
		}
		checkRetarget(t, cpu, insts, len(block), cfg)
	})
}

// checkRetarget runs insts (repeats of their first body instructions) on
// cpu and times them, then retargets the machine to cpu's perturbation
// (the same cache geometry: the graph is retimed and the warm-up
// restored) and to Ice Lake (another geometry: the warm-up walks again),
// and requires each retargeted machine's counters to equal a fresh
// machine's on that µarch.
func checkRetarget(t *testing.T, cpu *uarch.CPU, insts []x86.Inst, body int, cfg Config) {
	t.Helper()
	timed := func(m *Machine, p *Program, steps []exec.Step) [2]pipeline.Counters {
		m.Rand.Seed(42)
		g := m.PrepareGraph(p, steps)
		m.WarmCaches(p, steps)
		return [2]pipeline.Counters{m.TimeGraph(g, cfg), m.TimeGraph(g, cfg)}
	}
	m, p, steps, ok := monitoredRun(cpu, insts, body, 0x12345600, true)
	if !ok {
		return
	}
	timed(m, p, steps)
	for _, to := range []*uarch.CPU{cpu.Perturbed(), uarch.IceLake()} {
		ents := resolveOn(to, insts[:body])
		if ents == nil {
			continue
		}
		m.Retarget(to, ents)
		got := timed(m, p, steps)
		fm, fp, fsteps, ok := monitoredRun(to, insts, body, 0x12345600, true)
		if !ok {
			t.Fatalf("%s → %s: the block runs on %s only", cpu.Name, to.Name, cpu.Name)
		}
		if want := timed(fm, fp, fsteps); got != want {
			t.Errorf("%s → %s: retargeted counters %+v, a fresh machine's %+v", cpu.Name, to.Name, got, want)
		}
	}
}
