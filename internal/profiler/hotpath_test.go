package profiler

import (
	"testing"

	"bhive/internal/exec"
	"bhive/internal/machine"
	"bhive/internal/memo"
	"bhive/internal/pipeline"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// seedOf is the RNG seed Profile derives for a block.
func seedOf(t *testing.T, insts []x86.Inst) int64 {
	t.Helper()
	ents, _ := resolve(uarch.Haswell(), memo.InternBlock(nil, &x86.Block{Insts: insts}), nil, true)
	return blockSeed(encoding(ents, nil))
}

// mapAndTrace runs profile's functional pass at the given unroll factor
// on a fresh scratch, for tests that drive measureOn directly.
func mapAndTrace(t *testing.T, p *Profiler, insts []x86.Inst, unroll int) (*machine.Machine, *machine.Program, []exec.Step, *pipeline.Graph) {
	t.Helper()
	sc := &scratch{}
	ents, err := resolve(p.CPU, memo.InternBlock(nil, &x86.Block{Insts: insts}), nil, false)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	pass := p.functional(sc, ents, insts, unroll, p.Opts.MaxFaults)
	if pass.Err != nil {
		t.Fatalf("functional pass: %v", pass.Err)
	}
	return sc.m, pass.Prog, pass.Steps, sc.m.PrepareGraph(pass.Prog, pass.Steps)
}

// measureOn runs the measurement protocol for one unrolled program on its
// own — the warm-up walk, the timed run, then acceptance — as the protocol
// states it. It is the oracle profile's one-pass derivation of the low
// unroll factor is checked against. steps may be a prefix of prog's
// trace: the warm-up walks the lines that prefix touches.
func measureOn(p *Profiler, m *machine.Machine, prog *machine.Program, g *pipeline.Graph, steps []exec.Step, unroll int, seed int64) (uint64, Result) {
	m.WarmCaches(prog, steps)
	return p.accept(m.TimeGraph(g, machine.Config{}), unroll, seed)
}

// TestMeasurementOrderIndependence pins down the equivalences the hot path
// relies on: each unroll factor's measurement draws its RNG stream from
// (blockSeed, unroll) alone; the low-factor measurement on the machine the
// high factor already warmed is identical to measuring it on a fresh
// machine; and the low factor's run derived from the high factor's
// scheduling pass, as Profile takes it, is identical to both. The low
// measurement must therefore come out the same whichever way it runs.
func TestMeasurementOrderIndependence(t *testing.T) {
	// The case-study experiment's option set: misaligned accesses kept.
	unfiltered := DefaultOptions()
	unfiltered.FilterMisaligned = false
	for name, opts := range map[string]Options{"default": DefaultOptions(), "unfiltered": unfiltered} {
		p := New(uarch.Haswell(), opts)
		for _, text := range []string{
			"add rax, rbx\nimul rcx, rdx",
			"mov rcx, qword ptr [rsp+8]\nadd rcx, rax\nmov qword ptr [rsp+8], rcx",
		} {
			b := block(t, text)
			seed := seedOf(t, b.Insts)
			lo, hi := p.Opts.UnrollFactors(len(b.Insts))
			nLo := len(b.Insts) * lo

			// Low factor alone, on a fresh machine.
			mA, progA, stepsA, gA := mapAndTrace(t, p, b.Insts, lo)
			cA, rA := measureOn(p, mA, progA, gA, stepsA, lo, seed)
			if rA.Status != StatusOK {
				t.Fatalf("%s %q: lo-alone status = %v", name, text, rA.Status)
			}

			// High first, then low timed on its own on the shared machine.
			mB, progB, stepsB, gB := mapAndTrace(t, p, b.Insts, hi)
			if _, rHi := measureOn(p, mB, progB, gB, stepsB, hi, seed); rHi.Status != StatusOK {
				t.Fatalf("%s %q: hi status = %v", name, text, rHi.Status)
			}
			gLo := gB.Slice(nLo)
			cB, rB := measureOn(p, mB, progB, &gLo, stepsB[:nLo], lo, seed)

			// Both factors from one scheduling pass — Profile's order.
			mC, progC, stepsC, gC := mapAndTrace(t, p, b.Insts, hi)
			_, rHi, cC, rC := p.measure(mC, progC, gC, stepsC, len(b.Insts), lo, hi, seed)
			if rHi.Status != StatusOK {
				t.Fatalf("%s %q: paired hi status = %v", name, text, rHi.Status)
			}

			for _, leg := range []struct {
				name string
				c    uint64
				r    Result
			}{{"after-hi", cB, rB}, {"derived", cC, rC}} {
				if leg.r.Status != StatusOK {
					t.Fatalf("%s %q: lo %s status = %v", name, text, leg.name, leg.r.Status)
				}
				if cA != leg.c || rA.Counters != leg.r.Counters {
					t.Errorf("%s %q: lo counters depend on measurement order: alone=%+v %s=%+v",
						name, text, rA.Counters, leg.name, leg.r.Counters)
				}
				if rA.CleanSamples != leg.r.CleanSamples {
					t.Errorf("%s %q: clean samples depend on measurement order: alone=%d %s=%d",
						name, text, rA.CleanSamples, leg.name, leg.r.CleanSamples)
				}
			}
		}
	}
}

// TestProfileDeterministic: repeated Profile calls (exercising the scratch
// pool reuse path) must return identical results.
func TestProfileDeterministic(t *testing.T) {
	p := New(uarch.Skylake(), DefaultOptions())
	b := block(t, "xor edx, edx\ndiv rcx\nadd rax, rdx")
	first := p.Profile(b)
	for i := 0; i < 3; i++ {
		if got := p.Profile(b); got != first {
			t.Fatalf("Profile run %d = %+v, first run %+v", i+2, got, first)
		}
	}
}

// TestUnrollSeedIndependent: the derived seeds must differ across unroll
// factors and not collide trivially across blocks.
func TestUnrollSeedIndependent(t *testing.T) {
	if unrollSeed(1, 4) == unrollSeed(1, 8) {
		t.Error("unroll factors 4 and 8 share a seed")
	}
	if unrollSeed(1, 4) == unrollSeed(2, 4) {
		t.Error("blocks 1 and 2 share a seed at unroll 4")
	}
}
