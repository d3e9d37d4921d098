package models

import (
	"errors"
	"fmt"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/uarch"
)

// eventRun wires copies of the block once and schedules it, as Schedule
// does.
func eventRun(insts []simInst, width, nports, copies int, trace *[]ScheduleEntry) (int64, error) {
	s := new(simScratch)
	s.wire(insts, copies, nports)
	return s.run(insts, copies, width, nports, trace)
}

// checkSimEquivalent requires the event core to match the reference
// scheduler on iters copies — cycles and the trace, entry by entry — also
// when the copies are the id prefix of a wiring for twice as many, the
// derived-prediction path. A block the reference can only finish by
// hitting its runaway guard must be an error in the event core.
func checkSimEquivalent(t *testing.T, label string, insts []simInst, width, nports, iters int) {
	t.Helper()
	var want, got []ScheduleEntry
	ref := simulateRef(insts, width, nports, iters, &want)
	cyc, err := eventRun(insts, width, nports, iters, &got)
	if ref > simMaxCycles {
		if err == nil {
			t.Fatalf("%s: reference ran away (%d cycles) but event core returned %d", label, ref, cyc)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: event core: %v (reference %d cycles)", label, err, ref)
	}
	if cyc != ref {
		t.Fatalf("%s: event core %d cycles, reference %d", label, cyc, ref)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: trace has %d entries, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: trace entry %d: event %+v, reference %+v", label, i, got[i], want[i])
		}
	}

	s := new(simScratch)
	s.wire(insts, 2*iters, nports)
	if cyc, err := s.run(insts, iters, width, nports, nil); err != nil || cyc != ref {
		t.Fatalf("%s: prefix of a %d-copy wiring: %d (%v), reference %d", label, 2*iters, cyc, err, ref)
	}
}

// TestSimulateEquivalenceCorpus runs generated corpus blocks through the
// event core and the reference scheduler on every microarchitecture, under
// each simulator-backed model's table options, and requires identical cycle
// counts, schedule traces and derived predictions.
func TestSimulateEquivalenceCorpus(t *testing.T) {
	scale := 0.0003
	if testing.Short() || raceEnabled {
		scale = 0.0001 // the check is sequential; the race detector only slows it
	}
	recs := corpus.GenerateAll(scale, 3)
	iterations := []int{1, 3, 12, 24, 60, 120}
	checked := 0
	for _, cpu := range uarch.Extended() {
		options := []struct {
			name string
			opts tableOpts
		}{
			{"IACA", NewIACA(cpu).opts},
			{"llvm-mca", NewLLVMMCA(cpu).opts},
			{"IACA-pure", NewIACAPure(cpu).opts},
		}
		for _, o := range options {
			for bi := range recs {
				b := recs[bi].Block
				insts, err := buildSimInsts(cpu, b, o.opts, true)
				if err != nil {
					continue // outside this µarch's tables
				}
				for _, it := range iterations {
					label := fmt.Sprintf("%s/%s/block %d/%d iters", cpu.Name, o.name, bi, it)
					checkSimEquivalent(t, label, insts, cpu.IssueWidth, cpu.NumPorts, it)
				}
				got, err := new(simScratch).derivedPrediction(insts, cpu.IssueWidth, cpu.NumPorts, len(b.Insts))
				if want := derivedRef(insts, cpu.IssueWidth, cpu.NumPorts, len(b.Insts)); err != nil || got != want {
					t.Fatalf("%s/%s/block %d: derived %v (%v), reference %v", cpu.Name, o.name, bi, got, err, want)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d block/µarch/option combinations checked", checked)
	}
}

// FuzzModelSimulateEquivalence drives synthetic instruction sequences —
// random port sets, latencies 0–250, occupancies, fused counts up to the
// width, loads, zero idioms and eliminated moves — through the event core
// and the reference scheduler. Zero divergences is a merge requirement for
// any change to the model scheduler.
func FuzzModelSimulateEquivalence(f *testing.F) {
	f.Add([]byte{0x13, 0x07, 0x01, 0x03, 0x22, 0x10, 0x05, 0x41}, uint8(4), uint8(6), uint8(3))
	f.Add([]byte{0x80, 0x00, 0x00, 0x02, 0x90, 0x31, 0x05, 0x01, 0x17, 0xF0}, uint8(4), uint8(8), uint8(12))
	f.Add([]byte{0x25, 0xFF, 0x60, 0x5A, 0x02, 0x00, 0x11, 0x03, 0x44, 0x09, 0xC3}, uint8(5), uint8(10), uint8(7))
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x02, 0x01}, uint8(2), uint8(3), uint8(20))
	f.Fuzz(func(t *testing.T, data []byte, widthB, nportsB, itersB uint8) {
		width := 1 + int(widthB)%6
		nports := 1 + int(nportsB)%10
		iters := 1 + int(itersB)%24
		insts := synthInsts(data, width, nports)
		if len(insts) == 0 {
			return
		}
		checkSimEquivalent(t, "fuzz", insts, width, nports, iters)
	})
}

// synthInsts decodes fuzz bytes into at most eight instructions. Every µop
// gets at least one port the machine has and every fused count fits the
// width, so each sequence can finish.
func synthInsts(data []byte, width, nports int) []simInst {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	regs := func(mask int) []uint8 {
		var out []uint8
		for r := 0; r < 4; r++ {
			if mask&(1<<r) != 0 {
				out = append(out, uint8(r*8+mask>>6)) // spread over the 33 registers
			}
		}
		return out
	}
	var insts []simInst
	for pos < len(data) && len(insts) < 8 {
		h := next()
		in := simInst{
			fused:     (h >> 4) % (width + 1),
			zeroIdiom: h&0x0C == 0x0C,
			elimMove:  h&0x0C == 0x08,
		}
		in.addr, in.data, in.writes = regs(next()), regs(next()), regs(next())
		for u := 0; u < h&3; u++ {
			p, l, o := next(), next(), next()
			in.uops = append(in.uops, simUop{
				ports:  uarch.PortSet(p%(1<<nports)) | uarch.Ports(p%nports),
				lat:    l % 251,
				occ:    (o & 0x1F) % (l%251 + 1),
				isLoad: o&0x80 != 0,
				class:  uarch.UopClass(o>>5) + uarch.ClassIntALU,
			})
			if o&0x60 == 0x60 {
				in.uops[u].fusedLoad = true
			}
		}
		insts = append(insts, in)
	}
	return insts
}

// TestSimulateStallIsAnError pins the stall bugfix: an instruction whose
// fused-µop count exceeds the issue width can never allocate, and a µop
// with no port on the machine can never issue. The reference scheduler
// spun to its 10,000,000-cycle guard and reported that as a prediction;
// the event core reports an error, which Predict's callers record as NaN.
func TestSimulateStallIsAnError(t *testing.T) {
	alu := simUop{ports: uarch.Ports(0, 1), lat: 1, class: uarch.ClassIntALU}
	cases := []struct {
		name  string
		insts []simInst
	}{
		{"over-wide", []simInst{
			{uops: []simUop{alu}, fused: 1, data: []uint8{0}, writes: []uint8{0}},
			{uops: []simUop{alu, alu, alu, alu, alu}, fused: 5},
		}},
		{"no port", []simInst{
			{uops: []simUop{{ports: uarch.Ports(7), lat: 1}}, fused: 1},
		}},
	}
	for _, tc := range cases {
		if _, err := new(simScratch).derivedPrediction(tc.insts, 4, 6, len(tc.insts)); !errors.Is(err, errSimStalled) {
			t.Errorf("%s: derivedPrediction error %v, want %v", tc.name, err, errSimStalled)
		}
		if _, err := schedule(tc.insts, 4, 6, 3); !errors.Is(err, errSimStalled) {
			t.Errorf("%s: schedule error %v, want %v", tc.name, err, errSimStalled)
		}
		if !testing.Short() {
			if ref := simulateRef(tc.insts, 4, 6, 1, nil); ref <= simMaxCycles {
				t.Errorf("%s: reference finished in %d cycles; the case no longer stalls", tc.name, ref)
			}
		}
	}
}

// TestSimulateZeroLatencyWakeup pins the same-cycle wake-up the reference
// allows: a younger µop behind a zero-latency producer issues in the
// producer's cycle, on the next free port.
func TestSimulateZeroLatencyWakeup(t *testing.T) {
	insts := []simInst{
		{uops: []simUop{{ports: uarch.Ports(0, 1), lat: 0}}, fused: 1, data: []uint8{0}, writes: []uint8{0}},
		{uops: []simUop{{ports: uarch.Ports(0, 1), lat: 0}}, fused: 1, data: []uint8{0}, writes: []uint8{1}},
		{uops: []simUop{{ports: uarch.Ports(0, 1, 2), lat: 3}}, fused: 1, data: []uint8{1}, writes: []uint8{2}},
	}
	trace, err := schedule(insts, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range trace {
		if e.Dispatch != 0 {
			t.Fatalf("entry %d dispatched at %d, want 0: %+v", i, e.Dispatch, trace)
		}
	}
	checkSimEquivalent(t, "zero-latency chain", insts, 4, 3, 5)
}

// TestPredictAllocs guards the scheduler's arena: once the scratch has
// grown, a derived prediction allocates nothing in the scheduler, on the
// in-order pass and on the event loop's forked k- and 2k-copy runs.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	hsw := uarch.Haswell()
	insts, err := buildSimInsts(hsw, parse(t, crcBlock), NewLLVMMCA(hsw).opts, false)
	if err != nil {
		t.Fatal(err)
	}
	var s simScratch
	run := func() {
		if _, err := s.derivedPrediction(insts, hsw.IssueWidth, hsw.NumPorts, 7); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg > 0.5 {
		t.Fatalf("derivedPrediction allocates %.1f times per call in steady state; want 0", avg)
	}

	// Blocks the in-order pass hands to the event loop: the 2k-copy run,
	// the k-copy run's saved state and its resumed run reuse the scratch.
	var fallbacks [][]simInst
	for _, rec := range corpus.GenerateAll(0.003, 7) {
		for _, opts := range []tableOpts{NewIACA(hsw).opts, NewLLVMMCA(hsw).opts} {
			insts, err := buildSimInsts(hsw, rec.Block, opts, false)
			if err != nil {
				continue
			}
			if _, _, path := s.inOrder(insts, unrollFor(len(insts)), hsw.IssueWidth, hsw.NumPorts); path == pathConflict {
				fallbacks = append(fallbacks, insts)
			}
		}
	}
	if len(fallbacks) < 10 {
		t.Fatalf("only %d occupancy fallbacks in the corpus sample", len(fallbacks))
	}
	runFallbacks := func() {
		for _, insts := range fallbacks {
			if _, err := s.derivedPrediction(insts, hsw.IssueWidth, hsw.NumPorts, len(insts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	runFallbacks()
	if avg := testing.AllocsPerRun(10, runFallbacks); avg != 0 {
		t.Fatalf("derivedPrediction allocates %.1f times per pass over %d fallback blocks in steady state; want 0", avg, len(fallbacks))
	}
	t.Logf("%d occupancy fallbacks", len(fallbacks))
}
