package profiler

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"bhive/internal/machine"
	"bhive/internal/pipeline"
)

// NumStatus is the number of distinct profiling statuses; ByStatus arrays
// are indexed by Status.
const NumStatus = len(statusNames)

// Metrics aggregates Profile outcomes across the goroutines sharing it:
// how many blocks were measured or statically prescreened, and the
// per-status outcome histogram. It is the first observability layer of
// the sharded evaluation pipeline — per-shard progress lines are derived
// from Snapshot deltas. All counters are
// atomic; a nil *Metrics is a valid no-op sink.
type Metrics struct {
	profiled    atomic.Uint64
	prescreened atomic.Uint64
	crossMism   atomic.Uint64
	passes      atomic.Uint64
	passServed  atomic.Uint64
	work        [4]atomic.Uint64 // graphs built, retimed; warm-ups walked, restored
	sched       [pipeline.NumPaths]atomic.Uint64
	status      [NumStatus]atomic.Uint64

	// planned is the number of block outcomes registered as upcoming work
	// (AddPlanned); startNanos is the wall time of the first recorded
	// outcome (0 = none yet). Together they drive Throughput's ETA.
	// measStartNanos is the wall time of the first *measured* outcome —
	// prescreens are near-instant, so the ETA for work that still has to
	// be measured must come from the measured rate alone, not the
	// prescreen-inflated overall rate.
	planned        atomic.Uint64
	startNanos     atomic.Int64
	measStartNanos atomic.Int64
}

// timeNow is swapped by tests to drive the rate clocks deterministically.
var timeNow = time.Now

// markStart stamps the first recorded outcome's wall time exactly once.
func (m *Metrics) markStart() {
	if m.startNanos.Load() == 0 {
		m.startNanos.CompareAndSwap(0, timeNow().UnixNano())
	}
}

// markMeasStart stamps the first measured outcome's wall time exactly once.
func (m *Metrics) markMeasStart() {
	if m.measStartNanos.Load() == 0 {
		m.measStartNanos.CompareAndSwap(0, timeNow().UnixNano())
	}
}

// AddPlanned registers n upcoming block outcomes, letting Throughput
// estimate time remaining. Callers register each pass's non-resumed work
// just before computing it, so the ETA covers the work known so far (later
// passes extend it as they start). Safe on a nil receiver.
func (m *Metrics) AddPlanned(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.planned.Add(uint64(n))
}

// Rate is a Throughput report: the overall processing rate (every
// outcome, prescreens included), the measured-only rate
// (zero until a block is actually measured), and the ETA for the planned
// work remaining.
type Rate struct {
	// BlocksPerSec is the overall rate since the first recorded outcome.
	BlocksPerSec float64
	// MeasuredPerSec is the rate of measured outcomes since the first
	// one; 0 while every outcome has been a prescreen.
	MeasuredPerSec float64
	// Eta estimates the time to finish the registered remaining work
	// (0 when none remains).
	Eta time.Duration
}

// Throughput reports the processing rates since the first recorded
// outcome and, from the planned-work registrations, the estimated time to
// finish the remainder. ok is false until an outcome has landed (and on a
// nil receiver).
//
// The ETA is derived from the measured-only rate once any block has been
// measured: prescreens complete in microseconds, so a run whose first
// thousands of outcomes are static rejections would otherwise report a
// wildly optimistic ETA for the blocks still waiting on the measurement
// protocol. Only when the run has measured nothing yet does the overall
// rate drive the ETA — then the prescreens *are* the workload.
func (m *Metrics) Throughput() (r Rate, ok bool) {
	if m == nil {
		return Rate{}, false
	}
	start := m.startNanos.Load()
	if start == 0 {
		return Rate{}, false
	}
	snap := m.Snapshot()
	done := snap.Total()
	elapsed := timeNow().Sub(time.Unix(0, start))
	if done == 0 || elapsed <= 0 {
		return Rate{}, false
	}
	r.BlocksPerSec = float64(done) / elapsed.Seconds()
	if ms := m.measStartNanos.Load(); ms != 0 && snap.Profiled > 0 {
		if me := timeNow().Sub(time.Unix(0, ms)); me > 0 {
			r.MeasuredPerSec = float64(snap.Profiled) / me.Seconds()
		}
	}
	if planned := m.planned.Load(); planned > done {
		etaRate := r.BlocksPerSec
		if r.MeasuredPerSec > 0 {
			etaRate = r.MeasuredPerSec
		}
		r.Eta = time.Duration(float64(planned-done) / etaRate * float64(time.Second))
	}
	return r, true
}

// record accounts one Profile call: one measured block.
func (m *Metrics) record(s Status) {
	if m == nil {
		return
	}
	m.markStart()
	m.markMeasStart()
	m.profiled.Add(1)
	if int(s) < NumStatus {
		m.status[s].Add(1)
	}
}

// recordPass accounts one functional pass that served n of the
// measurements recorded here.
func (m *Metrics) recordPass(n int) {
	m.passes.Add(1)
	m.passServed.Add(uint64(n))
}

// recordWork accounts how one measurement's timing half prepared its
// graph and its warm caches.
func (m *Metrics) recordWork(w machine.Work) {
	if m == nil {
		return
	}
	for i, n := range [...]uint64{w.Builds, w.Retimes, w.Walks, w.Restores} {
		m.work[i].Add(n)
	}
	for p, n := range w.Sched {
		m.sched[p].Add(n)
	}
}

// RecordPrescreened accounts one block that static analysis rejected
// before profiling: the predicted status lands in the histogram like a
// dynamic outcome, and the Prescreened counter records that no
// measurement ran for it.
func (m *Metrics) RecordPrescreened(s Status) {
	if m == nil {
		return
	}
	m.markStart()
	m.prescreened.Add(1)
	if int(s) < NumStatus {
		m.status[s].Add(1)
	}
}

// RecordCrosscheckMismatch accounts one block whose dynamic status
// disagreed with the static prediction outside the whitelisted cases.
func (m *Metrics) RecordCrosscheckMismatch() {
	if m == nil {
		return
	}
	m.crossMism.Add(1)
}

// Snapshot is a point-in-time copy of the counters, suitable for delta
// arithmetic between shards.
type Snapshot struct {
	// Profiled counts blocks that went through the measurement protocol.
	Profiled uint64
	// Prescreened counts blocks skipped by static prescreening before any
	// measurement ran (their predicted statuses are in ByStatus).
	Prescreened uint64
	// CrosscheckMismatch counts blocks whose dynamic status disagreed
	// with the static prediction outside the whitelisted cases.
	CrosscheckMismatch uint64
	// Passes counts functional passes — monitored runs of a block — and
	// PassServed the measurements they served: every µarch (and simulator
	// backend) measuring a block shares its one pass (ProfileEach), so
	// PassServed/Passes is the sharing factor. A measurement that failed
	// before the pass (an unsupported instruction) used none.
	Passes, PassServed uint64
	// GraphsBuilt and GraphsRetimed count the µop graphs the measurements
	// built from their trace and retimed from another key's graph of the
	// same pass; WarmWalks and WarmRestores count the cache warm-ups that
	// walked the trace and that restored the pass's first warm-up. A key
	// whose µop shapes or cache geometry differ from the key before it
	// builds or walks, so a retime or restore that does not happen shows
	// here.
	GraphsBuilt, GraphsRetimed, WarmWalks, WarmRestores uint64
	// Sched counts the timed runs by the pipeline path that scheduled
	// them: the in-order pass, or the event scheduler by reason.
	Sched pipeline.SchedCounters
	// ByStatus histograms the outcome of every Profile call, indexed by
	// Status (prescreened blocks contribute their predicted status).
	ByStatus [NumStatus]uint64
}

// Snapshot copies the current counters. Safe on a nil receiver.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	s.Profiled = m.profiled.Load()
	s.Prescreened = m.prescreened.Load()
	s.CrosscheckMismatch = m.crossMism.Load()
	s.Passes = m.passes.Load()
	s.PassServed = m.passServed.Load()
	s.GraphsBuilt = m.work[0].Load()
	s.GraphsRetimed = m.work[1].Load()
	s.WarmWalks = m.work[2].Load()
	s.WarmRestores = m.work[3].Load()
	for p := range s.Sched {
		s.Sched[p] = m.sched[p].Load()
	}
	for i := range s.ByStatus {
		s.ByStatus[i] = m.status[i].Load()
	}
	return s
}

// Sub returns the counter deltas since prev (for per-shard reporting).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Profiled:           s.Profiled - prev.Profiled,
		Prescreened:        s.Prescreened - prev.Prescreened,
		CrosscheckMismatch: s.CrosscheckMismatch - prev.CrosscheckMismatch,
		Passes:             s.Passes - prev.Passes,
		PassServed:         s.PassServed - prev.PassServed,
		GraphsBuilt:        s.GraphsBuilt - prev.GraphsBuilt,
		GraphsRetimed:      s.GraphsRetimed - prev.GraphsRetimed,
		WarmWalks:          s.WarmWalks - prev.WarmWalks,
		WarmRestores:       s.WarmRestores - prev.WarmRestores,
		Sched:              s.Sched.Sub(prev.Sched),
	}
	for i := range s.ByStatus {
		d.ByStatus[i] = s.ByStatus[i] - prev.ByStatus[i]
	}
	return d
}

// Total is the number of blocks covered by the snapshot, including the
// statically prescreened ones that never reached the protocol.
func (s Snapshot) Total() uint64 { return s.Profiled + s.Prescreened }

// RejectHistogram renders the non-OK statuses as "crashed=3 unstable=1"
// ("none" if every call succeeded), with prescreen skips and cross-check
// mismatches appended when present ("... prescreened=5 cross-mismatch=1").
func (s Snapshot) RejectHistogram() string {
	var sb strings.Builder
	for i, n := range s.ByStatus {
		if Status(i) == StatusOK || n == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", Status(i), n)
	}
	if sb.Len() == 0 && s.Prescreened == 0 && s.CrosscheckMismatch == 0 {
		return "none"
	}
	if s.Prescreened > 0 {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "prescreened=%d", s.Prescreened)
	}
	if s.CrosscheckMismatch > 0 {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "cross-mismatch=%d", s.CrosscheckMismatch)
	}
	if sb.Len() == 0 {
		return "none"
	}
	return sb.String()
}
