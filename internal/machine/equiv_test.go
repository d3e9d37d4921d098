package machine

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bhive/internal/cache"
	"bhive/internal/exec"
	"bhive/internal/pipeline"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// The differential harness for the pipeline's three schedulers: the
// retained cycle-by-cycle reference loop (pipeline.SimulateReference, an
// oracle only tests call), the event-driven scheduler
// (pipeline.SimulateEvent) and the route every timed run takes, which is
// the in-order pass wherever that is exact and the event scheduler
// otherwise. They are required to be bit-identical — same Counters on
// every run, including cache-state evolution across runs. The
// deterministic tests sweep curated scenarios; FuzzSimulateEquivalence
// explores random block compositions.

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

// scheduler selects the timing route equivCounters drives.
type scheduler int

const (
	schedReference scheduler = iota // pipeline.SimulateReference
	schedEvent                      // pipeline.SimulateEvent: the event scheduler alone
	schedTimed                      // TimeGraph: the in-order pass where exact
)

var schedNames = [...]string{"reference", "event", "timed"}

// equivRun is what equivCounters observes: the counters of every timing
// run and the caches they leave behind.
type equivRun struct {
	ctr      [3]pipeline.Counters
	l1i, l1d cache.Cache
}

// equivCounters runs the full measurement motion — prepare, fault-driven
// page mapping, functional execution, then three timing runs (cold, warm,
// and warm again) — on a fresh machine with the chosen scheduler, and
// returns the counters of every run and the final caches. ok is false if
// the input cannot be prepared or executed; that decision is taken before
// any timing happens, so it cannot differ between schedulers.
func equivCounters(cpu *uarch.CPU, insts []x86.Inst, sched scheduler) (out equivRun, ok bool) {
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
	for i := range out.ctr {
		switch sched {
		case schedReference:
			out.ctr[i] = pipeline.SimulateReference(m.CPU, m.buildItems(p, steps), m.L1I, m.L1D)
		case schedEvent:
			out.ctr[i], _, _ = pipeline.SimulateEvent(m.CPU, m.PrepareGraph(p, steps), 0, m.L1I, m.L1D, m.pipelineConfig())
		default:
			out.ctr[i] = m.TimeGraph(m.PrepareGraph(p, steps), Config{})
		}
	}
	out.l1i.CopyFrom(m.L1I)
	out.l1d.CopyFrom(m.L1D)
	return out, true
}

// checkEquivalence drives one block through every scheduler and fails the
// test on any counter or cache divergence.
func checkEquivalence(t *testing.T, label string, cpu *uarch.CPU, insts []x86.Inst) {
	t.Helper()
	checkSchedulers(t, label, cpu, insts, schedReference)
}

// checkSchedulers is checkEquivalence over the schedulers from first on:
// schedEvent leaves the reference out, for runs it would spin through to
// the cycle cap one cycle at a time.
func checkSchedulers(t *testing.T, label string, cpu *uarch.CPU, insts []x86.Inst, first scheduler) {
	t.Helper()
	want, okWant := equivCounters(cpu, insts, first)
	for sched := first + 1; sched <= schedTimed; sched++ {
		got, ok := equivCounters(cpu, insts, sched)
		if ok != okWant {
			t.Fatalf("%s: schedulers disagree on runnability: %s=%v %s=%v",
				label, schedNames[first], okWant, schedNames[sched], ok)
		}
		if !ok {
			return
		}
		for i := range want.ctr {
			if want.ctr[i] != got.ctr[i] {
				t.Errorf("%s: run %d diverges:\n  %-9s %+v\n  %-9s %+v",
					label, i, schedNames[first], want.ctr[i], schedNames[sched], got.ctr[i])
			}
		}
		if !reflect.DeepEqual(want.l1i, got.l1i) || !reflect.DeepEqual(want.l1d, got.l1d) {
			t.Errorf("%s: %s leaves other caches than %s", label, schedNames[sched], schedNames[first])
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
// pairs and an I-cache-overflowing unroll.
func TestSimulateEquivalenceCorpus(t *testing.T) {
	for _, mk := range equivCPUs {
		cpu := mk()
		for _, text := range equivPool {
			block, err := x86.Parse(text, x86.SyntaxAuto)
			if err != nil {
				t.Fatalf("parse %q: %v", text, err)
			}
			checkEquivalence(t, cpu.Name+"/"+text, cpu, unrollInsts(block, 24))
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
			checkEquivalence(t, text, cpu, unrollInsts(block, unroll))
		}
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
	checkEquivalence(t, "icache-overflow", cpu, unrollInsts(block, 100))
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

// TestLegacyCountersGolden pins the exact warm-run counters of every pool
// block for every µarch against a committed golden file: any change to
// simulation — however indirect, e.g. through front-end refactoring —
// shows up as a byte diff here, not just as drift in aggregated harness
// tables. Regenerate with
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
			out, ok := equivCounters(cpu, unrollInsts(block, 16), schedTimed)
			if !ok {
				fmt.Fprintf(&sb, "%s %2d unsupported  # %s\n", cpu.Name, pi, text)
				continue
			}
			fmt.Fprintf(&sb, "%s %2d %+v  # %s\n", cpu.Name, pi, out.ctr[1], text)
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
// through the reference scheduler, the event scheduler and the timed route
// (the in-order pass where exact) and requires identical Counters and
// caches on every run, for the program and for its prefix at a random
// cut. It also times each program with that prefix in one pass
// (TimeGraphPair) against the two timed one at a time and against the
// event scheduler's pair, and retargets each program to a perturbed µarch
// and to Ice Lake against a fresh build there (checkRetarget). mode picks
// the µarch and a cramped variant of it (crampedCPU) that makes some
// items over-wide or some µops portless.
// Zero divergences is a merge requirement for any scheduler change.
func FuzzSimulateEquivalence(f *testing.F) {
	f.Add([]byte{0, 5, 6, 9}, uint8(16), uint8(0), uint8(32))
	// The divider seeds zero edx first: the initialized edx:eax divided
	// by ecx overflows the quotient, and a faulting block times nothing.
	f.Add([]byte{3, 16, 1, 1}, uint8(8), uint8(0), uint8(16))
	f.Add([]byte{6, 7, 8, 9, 10}, uint8(24), uint8(2), uint8(61))
	f.Add([]byte{13, 14, 15, 2}, uint8(12), uint8(3), uint8(24))
	f.Add([]byte{10, 10, 11}, uint8(30), uint8(1), uint8(0))
	f.Add([]byte{0, 5, 6, 9}, uint8(16), uint8(0), uint8(33))   // haswell
	f.Add([]byte{13, 14, 15, 2}, uint8(12), uint8(3), uint8(8)) // icelake
	f.Add([]byte{3, 16, 1, 1}, uint8(8), uint8(3), uint8(20))   // icelake
	f.Add([]byte{5, 6, 0}, uint8(10), uint8(0), uint8(12))      // haswell
	// One seed per event-scheduler fallback of the timed route. The
	// cold first run of any block with memory access is not resident.
	f.Add([]byte{3, 0, 16, 0, 11}, uint8(11), uint8(0), uint8(20)) // occupancy conflict
	f.Add([]byte{6, 0, 1}, uint8(10), uint8(4), uint8(9))          // over-wide: a store in a one-slot RS
	f.Add([]byte{6, 0, 1}, uint8(10), uint8(8), uint8(9))          // cycle cap: a store-data µop with no port
	f.Fuzz(fuzzEquivalence)
}

// fuzzEquivalence is FuzzSimulateEquivalence's check of one input.
func fuzzEquivalence(t *testing.T, sel []byte, unrollByte, mode, cut uint8) {
	if len(sel) == 0 || len(sel) > 12 {
		return
	}
	nCPU := len(equivCPUs)
	variant := (int(mode) / nCPU) % 3
	cpu := crampedCPU(int(mode)%nCPU, variant)
	var block []x86.Inst
	for _, b := range sel {
		insts, err := x86.Parse(equivPool[int(b)%len(equivPool)], x86.SyntaxAuto)
		if err != nil {
			t.Fatalf("pool parse: %v", err)
		}
		block = append(block, insts...)
	}
	unroll := 1 + int(unrollByte)%32
	insts := unrollInsts(block, unroll)
	if len(insts) > 384 {
		insts = insts[:384]
	}
	// The reference would spin a deadlock to the cycle cap one cycle at
	// a time: on a cramped µarch the check starts at the event scheduler.
	first := schedReference
	if variant > 0 {
		first = schedEvent
	}
	checkSchedulers(t, "fuzz", cpu, insts, first)
	nLo := int(cut) % len(insts)
	if nLo > 0 {
		checkSchedulers(t, "fuzz prefix", cpu, insts[:nLo], first)
	}

	// The one-pass pair at the random prefix length (0 is no prefix).
	if m, p, steps, g, ok := pairSetup(cpu, insts, len(block)); ok {
		checkPair(t, "fuzz pair", m, p, steps, g, nLo)
		checkPairEvent(t, "fuzz pair", m, p, steps, g, nLo)
	}
	checkRetarget(t, cpu, insts, len(block))
}

// crampedCPUs caches the cramped variants by µarch and variant, so the
// memo derives each variant's descriptions once.
var crampedCPUs sync.Map

// crampedCPU returns equivCPUs[k] for variant 0. Variant 1 has a one-slot
// reservation station, so every multi-µop item is over-wide; variant 2
// has two ports, so every µop bound to a higher port never issues. Both
// deadlock, which the timed route hands to the event scheduler.
func crampedCPU(k, variant int) *uarch.CPU {
	if variant == 0 {
		return equivCPUs[k]()
	}
	key := [2]int{k, variant}
	if c, ok := crampedCPUs.Load(key); ok {
		return c.(*uarch.CPU)
	}
	c := equivCPUs[k]()
	if variant == 1 {
		c.Name += "-rs1"
		c.RSSize = 1
	} else {
		c.Name += "-2port"
		c.NumPorts = 2
	}
	v, _ := crampedCPUs.LoadOrStore(key, c)
	return v.(*uarch.CPU)
}

// checkRetarget runs insts (repeats of their first body instructions) on
// cpu and times them, then retargets the machine to cpu's perturbation
// (the same cache geometry: the graph is retimed and the warm-up
// restored) and to Ice Lake (another geometry: the warm-up walks again),
// and requires each retargeted machine's counters to equal a fresh
// machine's on that µarch.
func checkRetarget(t *testing.T, cpu *uarch.CPU, insts []x86.Inst, body int) {
	t.Helper()
	timed := func(m *Machine, p *Program, steps []exec.Step) [2]pipeline.Counters {
		g := m.PrepareGraph(p, steps)
		m.WarmCaches(p, steps)
		return [2]pipeline.Counters{m.TimeGraph(g, Config{}), m.TimeGraph(g, Config{})}
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
