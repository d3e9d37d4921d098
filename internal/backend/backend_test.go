package backend

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

func block(t *testing.T, text string) *x86.Block {
	t.Helper()
	b, err := x86.ParseBlock(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return b
}

func TestCheckSpec(t *testing.T) {
	for _, ok := range []string{"sim", "perturbed", "recorded:/tmp/x.trace"} {
		if err := CheckSpec(ok); err != nil {
			t.Errorf("CheckSpec(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "hardware", "recorded", "recorded:", "SIM"} {
		if err := CheckSpec(bad); err == nil {
			t.Errorf("CheckSpec(%q) = nil, want error", bad)
		}
	}
}

func TestParseList(t *testing.T) {
	bes, err := ParseList("sim, perturbed", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bes) != 2 || bes[0].Name() != "sim" || bes[1].Name() != "perturbed" {
		t.Fatalf("got %d backends", len(bes))
	}
	if _, err := ParseList("sim,sim", Options{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate spec: err = %v", err)
	}
	if _, err := ParseList("", Options{}); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := ParseList("recorded:/no/such/file", Options{}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestSimVsPerturbed: the perturbed parameterization must produce a
// different throughput on a latency-bound block but agree on the status
// protocol — it is a recalibration, not a different acceptance policy.
func TestSimVsPerturbed(t *testing.T) {
	b := block(t, "addss xmm1, xmm0\naddss xmm2, xmm1\naddss xmm3, xmm2")
	cpu := uarch.Haswell()
	sim := NewSim(Options{})
	per := NewPerturbedSim(Options{})
	ms := sim.Measure(b, cpu)
	mp := per.Measure(b, cpu)
	if ms.Status != profiler.StatusOK || mp.Status != profiler.StatusOK {
		t.Fatalf("statuses: sim=%v perturbed=%v", ms.Status, mp.Status)
	}
	if mp.Throughput <= ms.Throughput {
		t.Fatalf("perturbed throughput %v not slower than sim %v (fp-add latency chain)",
			mp.Throughput, ms.Throughput)
	}
	if sim.Fingerprint() == per.Fingerprint() {
		t.Fatal("sim and perturbed share a fingerprint")
	}
}

func TestRecordReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sim.trace")
	blocks := []*x86.Block{
		block(t, "add rax, rbx"),
		block(t, "imul rax, rbx\nadd rcx, rax"),
		block(t, "addss xmm1, xmm0"),
	}
	cpu := uarch.Skylake()

	rec, err := NewRecorder(NewSim(Options{}), path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name() != "sim" {
		t.Fatalf("recorder name %q, want inner backend's", rec.Name())
	}
	want := make([]Measurement, len(blocks))
	for i, b := range blocks {
		want[i] = rec.Measure(b, cpu)
		rec.Measure(b, cpu) // re-measuring must dedup, not duplicate entries
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rb, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Name() != "sim" {
		t.Fatalf("replay name %q, want %q (adopted from header)", rb.Name(), "sim")
	}
	if rb.Fingerprint() != NewSim(Options{}).Fingerprint() {
		t.Fatal("replay did not adopt the recorded fingerprint")
	}
	if rb.Len() != len(blocks) {
		t.Fatalf("trace holds %d entries, want %d (dedup)", rb.Len(), len(blocks))
	}
	for i, b := range blocks {
		got := rb.Measure(b, cpu)
		if got.Status != want[i].Status || got.Throughput != want[i].Throughput {
			t.Errorf("block %d: replay (%v, %v) != recorded (%v, %v)",
				i, got.Status, got.Throughput, want[i].Status, want[i].Throughput)
		}
		if got.Counters.Cycles != want[i].Counters.Cycles {
			t.Errorf("block %d: replay cycles %d != recorded %d",
				i, got.Counters.Cycles, want[i].Counters.Cycles)
		}
	}

	// A block the trace never saw replays as a descriptive crash, and a
	// different µarch misses too (the key is content-addressed per CPU).
	miss := rb.Measure(block(t, "sub rax, rbx"), cpu)
	if miss.Status != profiler.StatusCrashed || miss.Err == nil {
		t.Fatalf("trace miss: (%v, %v), want crashed with error", miss.Status, miss.Err)
	}
	if m := rb.Measure(blocks[0], uarch.Haswell()); m.Status != profiler.StatusCrashed {
		t.Fatalf("cross-µarch lookup: %v, want crashed (never recorded)", m.Status)
	}
}

func TestOpenTraceErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, content, wantErr string
	}{
		{"nohdr", "", "missing header"},
		{"badhdr", "not json\n", "bad header"},
		{"badver", `{"Version":99,"Backend":"sim"}` + "\n", "version 99"},
		{"noname", `{"Version":1,"Backend":""}` + "\n", "names no backend"},
		{"torn", `{"Version":1,"Backend":"sim"}` + "\n" + `{"Key":"ab"`, "truncated"},
		{"badline", `{"Version":1,"Backend":"sim"}` + "\n" + "garbage\n", "invalid character"},
		{"conflict", `{"Version":1,"Backend":"sim"}` + "\n" +
			`{"Key":"k1","CPU":"haswell","Status":0,"Tp":1}` + "\n" +
			`{"Key":"k1","CPU":"haswell","Status":0,"Tp":2}` + "\n", "conflicting"},
		// Same Status and Tp, different Counters: the payload comparison
		// must cover every field, or the second entry silently wins.
		{"conflict-counters", `{"Version":1,"Backend":"sim"}` + "\n" +
			`{"Key":"k1","CPU":"haswell","Status":0,"Tp":1,"Counters":{"Cycles":10}}` + "\n" +
			`{"Key":"k1","CPU":"haswell","Status":0,"Tp":1,"Counters":{"Cycles":11}}` + "\n", "conflicting"},
	}
	for _, c := range cases {
		_, err := OpenTrace(write(c.name, c.content))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
	if _, err := OpenTrace(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestOpenTraceCrashSweep cuts a recorded trace at every byte offset
// short of its full length, and separately zeroes each byte of its last
// entry. A published trace is complete, so a torn or damaged entry fails
// to open, never loads a prefix. A cut exactly on a line boundary leaves
// a well-formed shorter trace, which the format cannot tell from one that
// measured fewer blocks: it loads exactly the whole entries, and replay
// of the missing blocks reports them as unmeasured.
func TestOpenTraceCrashSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.trace")
	rec, err := NewRecorder(NewSim(Options{}), path)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"add rax, rbx", "imul rcx, rdx", "mov rax, qword ptr [rsi]"} {
		rec.Measure(block(t, text), uarch.Haswell())
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rb, err := OpenTrace(path); err != nil || rb.Len() != 3 {
		t.Fatalf("full trace: %v", err)
	}

	cut := filepath.Join(dir, "cut.trace")
	open := func(raw []byte) (*RecordedBackend, error) {
		if err := os.WriteFile(cut, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return OpenTrace(cut)
	}
	for k := 0; k < len(full); k++ {
		rb, err := open(full[:k])
		if lines := bytes.Count(full[:k], []byte("\n")); k > 0 && full[k-1] == '\n' {
			if err != nil || rb.Len() != lines-1 {
				t.Fatalf("cut on the line boundary %d: err %v, want %d whole entries", k, err, lines-1)
			}
		} else if err == nil || rb != nil {
			t.Fatalf("cut at %d of %d: OpenTrace accepted a torn trace", k, len(full))
		}
	}
	for i := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] = 0
		if rb, err := open(bad); err == nil || rb != nil {
			t.Fatalf("zeroed byte %d of the last entry: OpenTrace accepted it", i)
		}
	}
}

// TestRecorderCrashMidRecord: a recording that never reaches Close must
// not disturb the final trace path. Before the atomic-write fix the
// Recorder created (truncating!) the final file up front, so a crash
// mid-record left a torn trace — and destroyed any previous good one.
func TestRecorderCrashMidRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sim.trace")
	cpu := uarch.Skylake()

	// A complete, good trace from an earlier run.
	rec, err := NewRecorder(NewSim(Options{}), path)
	if err != nil {
		t.Fatal(err)
	}
	rec.Measure(block(t, "add rax, rbx"), cpu)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A second recording "crashes" mid-record: measurements happen, Close
	// never does. The final path must still hold the old trace bytes.
	crashed, err := NewRecorder(NewSim(Options{}), path)
	if err != nil {
		t.Fatal(err)
	}
	crashed.Measure(block(t, "imul rax, rbx"), cpu)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("mid-record, final path changed: err=%v len=%d want %d", err, len(got), len(good))
	}
	if rb, err := OpenTrace(path); err != nil || rb.Len() != 1 {
		t.Fatalf("old trace unreadable mid-record: %v", err)
	}

	// The unpublished temp file is in the directory; a fresh recording to
	// the same path must not trip over it and must publish atomically.
	rec2, err := NewRecorder(NewSim(Options{}), path)
	if err != nil {
		t.Fatal(err)
	}
	rec2.Measure(block(t, "add rax, rbx"), cpu)
	rec2.Measure(block(t, "sub rcx, rdx"), cpu)
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
	rb, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Len() != 2 {
		t.Fatalf("republished trace holds %d entries, want 2", rb.Len())
	}
}

// TestPerturbedSharesCacheSafely: both parameterizations can share the
// process-wide µop-description memo and one metrics sink because the
// perturbed CPUs carry distinct names — a memoized sim description must
// never satisfy a perturbed lookup.
func TestPerturbedSharesCacheSafely(t *testing.T) {
	b := block(t, "addss xmm1, xmm0\naddss xmm2, xmm1")
	cpu := uarch.Haswell()
	simNoCache := NewSim(Options{}).Measure(b, cpu)
	perNoCache := NewPerturbedSim(Options{}).Measure(b, cpu)

	met := new(profiler.Metrics)
	opts := Options{Metrics: met}
	sim := NewSim(opts)
	per := NewPerturbedSim(opts)
	if got := sim.Measure(b, cpu); got.Throughput != simNoCache.Throughput {
		t.Fatalf("sim with shared metrics: %v, want %v", got.Throughput, simNoCache.Throughput)
	}
	if got := per.Measure(b, cpu); got.Throughput != perNoCache.Throughput {
		t.Fatalf("perturbed under shared infra: %v, want %v", got.Throughput, perNoCache.Throughput)
	}
}

// TestSimProfiler: the simulator backends expose the profiler their
// Measure runs — one per CPU, the perturbed one on the remapped CPU.
func TestSimProfiler(t *testing.T) {
	b := block(t, "add rax, rbx\nimul rcx, rdx")
	for _, be := range []interface {
		Backend
		Profiler(*uarch.CPU) *profiler.Profiler
	}{NewSim(Options{}), NewPerturbedSim(Options{})} {
		for _, cpu := range uarch.All() {
			p := be.Profiler(cpu)
			if p != be.Profiler(cpu) {
				t.Fatalf("%s: a second Profiler call on %s built another profiler", be.Name(), cpu.Name)
			}
			wantCPU := cpu.Name
			if be.Name() == "perturbed" {
				wantCPU = cpu.Perturbed().Name
			}
			if p.CPU.Name != wantCPU {
				t.Errorf("%s on %s profiles on %s, want %s", be.Name(), cpu.Name, p.CPU.Name, wantCPU)
			}
			r, m := p.Profile(b), be.Measure(b, cpu)
			if r.Status != m.Status || r.Throughput != m.Throughput || r.Counters != m.Counters {
				t.Errorf("%s on %s: Profile %+v, Measure %+v", be.Name(), cpu.Name, r, m)
			}
		}
	}
}
