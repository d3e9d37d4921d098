package profiler

import (
	"strings"
	"testing"
	"time"

	"bhive/internal/uarch"
)

func TestMetricsCountsAndHistogram(t *testing.T) {
	p := New(uarch.Haswell(), DefaultOptions())
	p.Metrics = new(Metrics)

	ok := block(t, "add rax, rbx")
	crash := block(t, "mov rax, qword ptr [0]")
	p.Profile(ok)
	p.Profile(crash)
	p.Profile(ok)

	s := p.Metrics.Snapshot()
	if s.Profiled != 3 || s.Total() != 3 {
		t.Fatalf("profiled=%d total=%d, want 3/3", s.Profiled, s.Total())
	}
	if s.ByStatus[StatusOK] != 2 || s.ByStatus[StatusCrashed] != 1 {
		t.Fatalf("status histogram %v", s.ByStatus)
	}
	if h := s.RejectHistogram(); !strings.Contains(h, "crashed=1") {
		t.Fatalf("reject histogram %q", h)
	}

	// Deltas since a snapshot isolate one shard's worth of work.
	p.Profile(crash)
	d := p.Metrics.Snapshot().Sub(s)
	if d.Total() != 1 || d.Profiled != 1 || d.ByStatus[StatusCrashed] != 1 {
		t.Fatalf("delta %+v", d)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.record(StatusOK) // must not panic
	m.RecordPrescreened(StatusCrashed)
	m.RecordCrosscheckMismatch()
	s := m.Snapshot()
	if s.Total() != 0 {
		t.Fatalf("nil metrics snapshot %+v", s)
	}
	if s.RejectHistogram() != "none" {
		t.Fatalf("clean histogram %q", s.RejectHistogram())
	}
}

func TestMetricsPrescreenAndCrosscheck(t *testing.T) {
	m := new(Metrics)
	m.record(StatusOK)
	m.RecordPrescreened(StatusCrashed)
	m.RecordPrescreened(StatusMisaligned)
	m.RecordCrosscheckMismatch()

	s := m.Snapshot()
	if s.Prescreened != 2 || s.CrosscheckMismatch != 1 {
		t.Fatalf("prescreened=%d mismatch=%d, want 2/1", s.Prescreened, s.CrosscheckMismatch)
	}
	// Prescreened blocks count toward Total and land their predicted
	// status in the histogram like a dynamic outcome.
	if s.Total() != 3 {
		t.Fatalf("total %d, want 3 (1 profiled + 2 prescreened)", s.Total())
	}
	if s.ByStatus[StatusCrashed] != 1 || s.ByStatus[StatusMisaligned] != 1 {
		t.Fatalf("status histogram %v", s.ByStatus)
	}
	h := s.RejectHistogram()
	for _, want := range []string{"crashed=1", "misaligned=1", "prescreened=2", "cross-mismatch=1"} {
		if !strings.Contains(h, want) {
			t.Fatalf("reject histogram %q missing %q", h, want)
		}
	}

	// Deltas preserve the new counters.
	m.RecordPrescreened(StatusCrashed)
	d := m.Snapshot().Sub(s)
	if d.Prescreened != 1 || d.Total() != 1 || d.CrosscheckMismatch != 0 {
		t.Fatalf("delta %+v", d)
	}

	// A snapshot with only prescreen skips still renders them.
	var only Metrics
	only.RecordPrescreened(StatusCrashed)
	if h := only.Snapshot().RejectHistogram(); !strings.Contains(h, "prescreened=1") {
		t.Fatalf("prescreen-only histogram %q", h)
	}
}

func TestMetricsThroughput(t *testing.T) {
	var nilM *Metrics
	nilM.AddPlanned(10) // must not panic
	if _, ok := nilM.Throughput(); ok {
		t.Fatal("nil metrics reported a throughput")
	}

	m := new(Metrics)
	if _, ok := m.Throughput(); ok {
		t.Fatal("throughput available before any outcome")
	}
	m.AddPlanned(100)
	if _, ok := m.Throughput(); ok {
		t.Fatal("planned work alone must not start the clock")
	}
	for i := 0; i < 4; i++ {
		m.record(StatusOK)
	}
	r, ok := m.Throughput()
	if !ok || r.BlocksPerSec <= 0 {
		t.Fatalf("throughput after 4 outcomes: %+v ok=%v", r, ok)
	}
	if r.Eta <= 0 {
		t.Fatalf("96 planned blocks remain but eta=%v", r.Eta)
	}

	// With the plan exhausted (or never registered) the ETA drops to zero
	// while the rate survives.
	done := new(Metrics)
	done.record(StatusOK)
	r, ok = done.Throughput()
	if !ok || r.BlocksPerSec <= 0 || r.Eta != 0 {
		t.Fatalf("unplanned run: %+v ok=%v", r, ok)
	}
}

// TestMetricsWarmResumeETA is the regression test for the optimistic-ETA
// bug: a run that opens on thousands of prescreened blocks records them
// in milliseconds, and an ETA derived from the overall rate then promises
// the remaining *measured* work at prescreen speed. The ETA must instead
// track the measured-only rate once any block has actually been measured.
func TestMetricsWarmResumeETA(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	timeNow = func() time.Time { return now }
	defer func() { timeNow = time.Now }()

	m := new(Metrics)
	m.AddPlanned(1000)

	// 500 prescreens land in 100ms — static rejections, nothing measured.
	for i := 0; i < 500; i++ {
		m.RecordPrescreened(StatusCrashed)
	}
	now = base.Add(100 * time.Millisecond)

	// One cold block takes a full second to measure.
	m.record(StatusOK)
	now = base.Add(1100 * time.Millisecond)

	r, ok := m.Throughput()
	if !ok {
		t.Fatal("no throughput after 501 outcomes")
	}
	// Overall rate is prescreen-dominated (~455 blocks/s) — fine for display.
	if r.BlocksPerSec < 100 {
		t.Fatalf("overall rate %v, want prescreen-dominated (>100/s)", r.BlocksPerSec)
	}
	// Measured rate is 1 block/s: that is what the remaining 499 blocks
	// will cost. The old ETA (remaining/overall) would have
	// been ~1.1s; the fixed ETA must be ~499s.
	if r.MeasuredPerSec <= 0.5 || r.MeasuredPerSec > 1.5 {
		t.Fatalf("measured rate %v, want ~1/s", r.MeasuredPerSec)
	}
	if r.Eta < 300*time.Second {
		t.Fatalf("eta %v still optimistic: want ~499s from the measured rate", r.Eta)
	}

	// A run that has measured nothing yet falls back to the overall rate
	// — there the prescreens are the workload.
	screened := new(Metrics)
	screened.AddPlanned(100)
	now = base
	for i := 0; i < 50; i++ {
		screened.RecordPrescreened(StatusCrashed)
	}
	now = base.Add(time.Second)
	r, ok = screened.Throughput()
	if !ok || r.MeasuredPerSec != 0 {
		t.Fatalf("prescreen-only run: %+v ok=%v, want measured rate 0", r, ok)
	}
	if r.Eta <= 0 || r.Eta > 10*time.Second {
		t.Fatalf("prescreen-only run eta %v, want ~1s from the overall rate", r.Eta)
	}
}
