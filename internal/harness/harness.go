// Package harness regenerates every table and figure of the paper's
// evaluation section against the simulated machine: the measurement
// ablations, the corpus and category statistics, the per-model error
// tables, the case studies, and the Google-workload validation. See
// DESIGN.md for the experiment index.
//
// Evaluation is sharded and resumable: the corpus is split into
// fixed-size shards, profiling and model prediction are driven
// shard-by-shard through the worker pool, and each completed shard is
// persisted to an append-only checkpoint journal (see Checkpoint) keyed
// by the run fingerprint. An interrupted run re-invoked with the same
// checkpoint file resumes from the last completed shard and produces
// byte-identical tables. Shard results stream into the incremental
// aggregators of internal/stats as they complete, and per-shard progress
// lines (blocks/s, reject-status histogram) go to Config.Progress.
package harness

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bhive/internal/backend"
	"bhive/internal/blocklint"
	"bhive/internal/classify"
	"bhive/internal/corpus"
	"bhive/internal/memo"
	"bhive/internal/models"
	"bhive/internal/models/ithemal"
	"bhive/internal/profiler"
	"bhive/internal/stats"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// DefaultShardSize is the per-shard record count when Config.ShardSize is
// unset: large enough to amortize worker startup, small enough that an
// interrupted run loses under a second of work.
const DefaultShardSize = 512

// ErrInterrupted is returned when Config.StopAfterShards exhausts its
// budget before the run completes. Completed shards are already persisted
// to the checkpoint; a re-run resumes behind them.
var ErrInterrupted = errors.New("harness: shard budget exhausted before the run completed")

// Config scales and parameterizes a harness run.
type Config struct {
	// Scale samples the corpus: 1.0 is the paper's full 358,561 blocks.
	Scale float64
	// Seed drives corpus generation and every stochastic component.
	Seed int64
	// TrainIthemal includes the learned model in the evaluations (adds
	// minutes of LSTM training per microarchitecture).
	TrainIthemal bool
	// IthemalEpochs bounds the training cost, with ithemalTrainCap.
	IthemalEpochs int
	// Workers bounds profiling parallelism (0 = GOMAXPROCS).
	Workers int
	// Records, when non-empty, overrides corpus generation — e.g. a corpus
	// loaded from a CSV written by bhive-collect.
	Records []corpus.Record

	// ShardSize is the number of corpus records per evaluation shard
	// (0 = DefaultShardSize). Shards are the unit of checkpointing,
	// resumption and progress reporting.
	ShardSize int
	// CheckpointPath, when non-empty, persists every completed shard to an
	// append-only journal there; a re-run with the same configuration
	// resumes from the last completed shard. See Checkpoint for the file
	// format.
	CheckpointPath string
	// FsyncEvery relaxes checkpoint durability to one fsync per N
	// completed shards (group commit); 0 or 1 syncs every shard. A crash
	// can lose at most the last N-1 persisted shards, which the next run
	// recomputes — graceful stops (Close, Interrupt, StopAfterShards)
	// always flush, so only a hard kill pays that price.
	FsyncEvery int
	// Progress, when non-nil, receives one line per completed shard
	// (blocks/s, reject-status histogram) and a per-µarch summary line.
	// It must be distinct from the stream the rendered tables go to.
	Progress io.Writer
	// StopAfterShards, when positive, aborts the run with ErrInterrupted
	// once that many shards have been computed (resumed shards don't
	// count). It bounds chunked batch jobs — "do N shards per invocation"
	// — and simulates interruption in the resumability tests.
	StopAfterShards int
	// Interrupt, when non-nil, requests a graceful drain: the run finishes
	// (and checkpoints) the shard in flight, then returns ErrInterrupted
	// at the next shard boundary once the channel is closed. The
	// evaluation server closes it on SIGTERM so in-flight jobs stop on a
	// durable boundary and resume byte-identically after restart.
	Interrupt <-chan struct{}
	// Metrics, when non-nil, receives every profiling outcome of the run
	// (all microarchitectures fold into it) instead of per-µarch private
	// counters. Snapshots are safe to take from other goroutines while the
	// run is in progress — the evaluation server polls it for job status.
	Metrics *profiler.Metrics

	// Prescreen runs the static block analyzer (internal/blocklint) over
	// every record before profiling and skips statically rejected blocks:
	// the predicted status is recorded without running the measurement
	// protocol, and the skip is counted in the metrics ("prescreened=N" in
	// the progress lines). Sound because the analyzer only rejects when
	// the rejection is guaranteed.
	Prescreen bool
	// Crosscheck profiles every non-prescreened record normally and also
	// runs the static analyzer, counting blocks whose dynamic status
	// disagrees with the static prediction outside the whitelisted cases
	// (see blocklint.Report.Agrees). Disagreements are surfaced in the
	// progress stream and in the metrics ("cross-mismatch=N").
	Crosscheck bool

	// Backends supplies the measurement backends the cross-validation
	// experiment (XValID) compares; empty means a single stock-simulator
	// backend wired to Metrics. The suite does not own them: the caller
	// Closes them after the run (traces flush there).
	// Their fingerprints are part of the run fingerprint, so checkpoints
	// written under one backend set never resume another.
	Backends []backend.Backend
}

// DefaultConfig is sized for interactive runs.
func DefaultConfig() Config {
	return Config{
		Scale:         0.02,
		Seed:          7,
		TrainIthemal:  false,
		IthemalEpochs: 12,
	}
}

// ithemalTrainCap is the most training samples Ithemal takes per
// microarchitecture.
const ithemalTrainCap = 2500

// measurement is one block's profiling outcome on one microarchitecture.
type measurement struct {
	tp     float64
	status profiler.Status
}

// archData caches per-microarchitecture results. The overall/tau
// aggregates are streamed shard-by-shard while the per-record slices are
// filled; summary tables read the aggregates and never re-walk the
// records.
type archData struct {
	meas    []measurement
	preds   map[string][]float64      // model name -> per-record prediction (NaN = failed)
	names   []string                  // model order
	overall map[string]*stats.Running // per-model streaming mean relative error
	tau     map[string]*stats.TauAcc  // per-model streaming Kendall-tau accumulator
}

// onceMap singleflights one expensive computation per key: concurrent
// callers asking for the same key share a single run and its result.
// The suite keeps one for the model-evaluation passes (keyed by µarch);
// measurement passes, which measure several keys at once, have their own
// (Suite.measured).
type onceMap[T any] struct {
	mu sync.Mutex
	m  map[string]*onceEntry[T]
}

type onceEntry[T any] struct {
	once sync.Once
	v    T
	err  error
}

// do returns compute's result for key, running compute at most once.
func (o *onceMap[T]) do(key string, compute func() (T, error)) (T, error) {
	o.mu.Lock()
	if o.m == nil {
		o.m = make(map[string]*onceEntry[T])
	}
	e := o.m[key]
	if e == nil {
		e = new(onceEntry[T])
		o.m[key] = e
	}
	o.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}

// Suite owns the corpus and caches expensive intermediate results.
type Suite struct {
	cfg  Config
	recs []corpus.Record
	fp   string // run fingerprint binding checkpoints to this configuration

	arch      onceMap[*archData] // per-µarch model-evaluation passes
	mu        sync.Mutex
	meas      map[string]*measEntry // per-lane-key measurement passes
	defaultBE backend.Backend       // lazily built when Config.Backends is empty
	cls       *classify.Classifier
	learn     map[string]*ithemal.Model
	ckpt      *Checkpoint
	ckptErr   error
	ckptOpen  bool

	idlePredict []*predictWorker // prediction workers no pass is using

	computedShards  atomic.Int64  // shards computed (not resumed) this run
	profileCalls    atomic.Uint64 // Profile invocations (resumed shards skip these)
	crossMismatches atomic.Uint64 // static/dynamic disagreements (Crosscheck)
}

// New builds a suite: the corpus is generated eagerly, everything else
// lazily.
func New(cfg Config) *Suite {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.02
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	recs := cfg.Records
	if len(recs) == 0 {
		recs = corpus.GenerateAll(cfg.Scale, cfg.Seed)
	}
	s := &Suite{
		cfg:   cfg,
		recs:  recs,
		learn: make(map[string]*ithemal.Model),
	}
	if cfg.CheckpointPath != "" {
		s.fp = runFingerprint(cfg, recs)
	}
	return s
}

// Records exposes the generated corpus.
func (s *Suite) Records() []corpus.Record { return s.recs }

// Close releases the checkpoint journal, if one was opened, flushing any
// shards a group-commit window (Config.FsyncEvery) was still holding.
// After Close every persisted shard is durable.
func (s *Suite) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ckpt != nil {
		return s.ckpt.Close()
	}
	return nil
}

// checkpoint lazily opens the journal configured by CheckpointPath.
func (s *Suite) checkpoint() (*Checkpoint, error) {
	if s.cfg.CheckpointPath == "" {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ckptOpen {
		s.ckpt, s.ckptErr = OpenCheckpoint(s.cfg.CheckpointPath, s.fp, s.cfg.ShardSize)
		s.ckptOpen = true
		if s.ckpt != nil && s.cfg.FsyncEvery > 1 {
			s.ckpt.SetGroupCommit(s.cfg.FsyncEvery)
		}
	}
	return s.ckpt, s.ckptErr
}

func (s *Suite) progressf(format string, args ...any) {
	if s.cfg.Progress != nil {
		fmt.Fprintf(s.cfg.Progress, format, args...)
	}
}

// shardBudget is how many more shards StopAfterShards lets the run
// compute: 0 means no limit.
func (s *Suite) shardBudget() int {
	if s.cfg.StopAfterShards <= 0 {
		return 0
	}
	return max(s.cfg.StopAfterShards-int(s.computedShards.Load()), 1)
}

// spendShard charges one computed shard against StopAfterShards and
// reports whether the run should stop — budget exhausted, or a graceful
// interrupt (Config.Interrupt) requested. Either way the shard just
// completed is already checkpointed, so stopping here is a durable
// boundary.
func (s *Suite) spendShard() bool {
	n := s.computedShards.Add(1)
	if s.cfg.StopAfterShards > 0 && n >= int64(s.cfg.StopAfterShards) {
		return true
	}
	select {
	case <-s.cfg.Interrupt:
		return true
	default: // nil channel: never ready, default always taken
		return false
	}
}

// resumedRecords counts the records of one measurement pass whose shards
// the checkpoint already holds — the work a resume skips, excluded from
// the planned total behind the progress ETA.
func (s *Suite) resumedRecords(ck *Checkpoint, arch string) int {
	if ck == nil {
		return 0
	}
	n := len(s.recs)
	resumed := 0
	for si := 0; si < s.numShards(n); si++ {
		lo, hi := s.shardBounds(si, n)
		if sh, ok := ck.Shard(arch, si); ok && measComplete(sh, hi-lo) {
			resumed += hi - lo
		}
	}
	return resumed
}

// etaSuffix renders the overall-rate/ETA segment of a progress line
// ("  overall 1234 blocks/s  eta 2m5s"), or "" before any outcome lands.
// The ETA comes from the measured-only rate (see profiler.Rate), so a
// warm-cache resume doesn't promise the cold remainder at cache speed.
func etaSuffix(met *profiler.Metrics) string {
	r, ok := met.Throughput()
	if !ok {
		return ""
	}
	out := fmt.Sprintf("  overall %.0f blocks/s", r.BlocksPerSec)
	if r.Eta > 0 {
		out += fmt.Sprintf("  eta %s", r.Eta.Round(time.Second))
	}
	return out
}

// numShards is the shard count covering n records.
func (s *Suite) numShards(n int) int {
	return (n + s.cfg.ShardSize - 1) / s.cfg.ShardSize
}

// shardBounds returns the [lo, hi) record range of shard si.
func (s *Suite) shardBounds(si, n int) (lo, hi int) {
	lo = si * s.cfg.ShardSize
	hi = lo + s.cfg.ShardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// maxMismatchLines bounds the per-suite cross-check detail lines in the
// progress stream; the full count is always in the metrics.
const maxMismatchLines = 20

// parallel runs do(st, i) for every i in [0, n) on the suite's worker
// pool. Each worker builds its own state st with newState (a profiler,
// say) before it takes indices off a shared channel.
func parallel[T any](s *Suite, n int, newState func() T, do func(st T, i int)) {
	var wg sync.WaitGroup
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newState()
			for i := range ch {
				do(st, i)
			}
		}()
	}
	wg.Wait()
}

// lane is one key of a measurement pass — a µarch for model evaluation,
// a (µarch, backend) pair for xval — and how its blocks are measured. A
// pass measures block-major: each pool worker measures one block for
// every lane before it takes the next, and the lanes whose profilers
// share Options measure it from one functional pass
// (profiler.ProfileEach).
type lane struct {
	// key is the lane's checkpoint shard key: cpu.Name for model
	// evaluation, cpu.Name@backend for xval.
	key string
	// prof measures the lane when non-nil. It is shared by the workers.
	prof *profiler.Profiler
	// lint, when non-nil, statically screens the lane's blocks before
	// profiling (Config.Prescreen) and checks the dynamic statuses after
	// (Config.Crosscheck).
	lint *blocklint.Analyzer
	// measure measures a block for a lane without a profiler.
	measure func(b *x86.Block) measurement
	// alone says why the lane cannot share the block's functional pass
	// ("" when it does): set by the builder of a lane without a profiler,
	// and by shareLanes for one whose options differ.
	alone string
}

// shareLanes marks the profiled lanes that cannot join the shared
// functional pass: those whose options differ from the first profiled
// lane's.
func shareLanes(lanes []lane) {
	var opts *profiler.Options
	for i := range lanes {
		switch l := &lanes[i]; {
		case l.prof == nil:
		case opts == nil:
			opts = &l.prof.Opts
		case l.prof.Opts != *opts:
			l.alone = "different options"
		}
	}
}

// newProfiler builds a profiler feeding met.
func newProfiler(cpu *uarch.CPU, opts profiler.Options, met *profiler.Metrics) *profiler.Profiler {
	p := profiler.New(cpu, opts)
	p.Metrics = met
	return p
}

// modelLane is the lane of the model-evaluation passes on cpu: it
// profiles under opts, feeding met. With Config.Prescreen, statically
// rejected blocks are skipped; with Config.Crosscheck, dynamic statuses
// are validated against the static predictions.
func (s *Suite) modelLane(cpu *uarch.CPU, opts profiler.Options, met *profiler.Metrics) lane {
	l := lane{key: cpu.Name, prof: newProfiler(cpu, opts, met)}
	if s.cfg.Prescreen || s.cfg.Crosscheck {
		l.lint = blocklint.New(cpu, opts)
	}
	return l
}

// laneWorker is one pool worker's scratch for measuring a block on every
// lane.
type laneWorker struct {
	s     *Suite
	lanes []lane
	profs []*profiler.Profiler // this block's shared-pass profilers
	idx   []int                // and their lanes
	res   []profiler.Result
	reps  []*blocklint.Report // per lane
}

// measure measures block i of the pass, b, on every lane into out[lane][i].
func (w *laneWorker) measure(b *x86.Block, out [][]measurement, i int) {
	s := w.s
	w.profs, w.idx = w.profs[:0], w.idx[:0]
	for li := range w.lanes {
		l := &w.lanes[li]
		w.reps[li] = nil
		if l.lint != nil {
			rep := l.lint.Analyze(b)
			if s.cfg.Prescreen && rep.Rejected() {
				l.prof.Metrics.RecordPrescreened(rep.Predicted)
				out[li][i] = measurement{tp: 0, status: rep.Predicted}
				continue
			}
			w.reps[li] = rep
		}
		switch {
		case l.prof == nil:
			out[li][i] = l.measure(b)
			s.profileCalls.Add(1)
		case l.alone != "":
			out[li][i] = w.profiled(l, w.reps[li], b, l.prof.Profile(b))
		default:
			w.profs = append(w.profs, l.prof)
			w.idx = append(w.idx, li)
		}
	}
	if len(w.profs) == 0 {
		return
	}
	res := w.res[:len(w.profs)]
	profiler.ProfileEach(b, w.profs, res)
	for k, li := range w.idx {
		out[li][i] = w.profiled(&w.lanes[li], w.reps[li], b, res[k])
	}
}

// profiled accounts one profiled (block, lane) result and cross-checks
// it against the static prediction rep.
func (w *laneWorker) profiled(l *lane, rep *blocklint.Report, b *x86.Block, r profiler.Result) measurement {
	s := w.s
	s.profileCalls.Add(1)
	if s.cfg.Crosscheck && rep != nil && !rep.Agrees(r.Status) {
		l.prof.Metrics.RecordCrosscheckMismatch()
		if n := s.crossMismatches.Add(1); n <= maxMismatchLines {
			hexStr, _ := b.Hex()
			s.progressf("[%s] crosscheck mismatch: %s static=%s(exact=%v) dynamic=%s\n",
				l.prof.CPU.Name, hexStr, rep.PredictedName, rep.Exact, r.Status)
		}
	}
	return measurement{tp: r.Throughput, status: r.Status}
}

// measureInto measures recs on every lane into out[lane] (index-aligned
// with recs) on the worker pool, block-major.
func (s *Suite) measureInto(lanes []lane, recs []corpus.Record, out [][]measurement) {
	shareLanes(lanes)
	newWorker := func() *laneWorker {
		return &laneWorker{
			s:     s,
			lanes: lanes,
			res:   make([]profiler.Result, len(lanes)),
			reps:  make([]*blocklint.Report, len(lanes)),
		}
	}
	parallel(s, len(recs), newWorker, func(w *laneWorker, i int) { w.measure(recs[i].Block, out, i) })
}

// CrosscheckMismatches reports how many static/dynamic disagreements the
// suite has seen (0 unless Config.Crosscheck).
func (s *Suite) CrosscheckMismatches() uint64 { return s.crossMismatches.Load() }

// profileAll profiles a record set in parallel under the given options
// (unsharded: the ablation tables and Google corpora are small).
func (s *Suite) profileAll(cpu *uarch.CPU, opts profiler.Options, recs []corpus.Record) []measurement {
	out := make([]measurement, len(recs))
	s.measureInto([]lane{s.modelLane(cpu, opts, nil)}, recs, [][]measurement{out})
	return out
}

// predictWorker is one prediction worker's working memory, kept for a
// whole prediction pass: the memo ids and entries of the block it is
// predicting and the analytical models' arenas (DESIGN.md §15).
type predictWorker struct {
	ids     []memo.ID
	entries []*memo.PreparedInst
	scr     models.Scratch
}

// takePredictWorkers hands a prediction pass one worker per pool
// worker, reusing those earlier passes returned: the models' arenas, once
// grown, serve every later pass of the suite.
func (s *Suite) takePredictWorkers() []*predictWorker {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := make([]*predictWorker, s.cfg.Workers)
	for i := range ws {
		if n := len(s.idlePredict); n > 0 {
			ws[i], s.idlePredict = s.idlePredict[n-1], s.idlePredict[:n-1]
		} else {
			ws[i] = new(predictWorker)
		}
	}
	return ws
}

// putPredictWorkers returns a finished pass's workers to the suite.
func (s *Suite) putPredictWorkers(ws []*predictWorker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idlePredict = append(s.idlePredict, ws...)
}

// resolve interns b and looks it up once on arch, for every model of the
// pass.
func (w *predictWorker) resolve(arch *memo.Arch, b *x86.Block) {
	w.ids = memo.InternBlock(w.ids[:0], b)
	w.entries = arch.ResolveIDs(w.entries[:0], w.ids)
}

// predict runs m on the block the worker last resolved, b: a resolved
// predictor reads the entries and the worker's scratch, any other model
// (the learned one) reads the block.
func (w *predictWorker) predict(m models.Predictor, b *x86.Block) (float64, error) {
	if r, ok := m.(models.ResolvedPredictor); ok {
		return r.PredictResolved(b, w.entries, &w.scr)
	}
	return m.Predict(b)
}

// predictRange runs every predictor, all on cpu, over recs on the workers
// ws, writing into out (model name -> index-aligned predictions; NaN =
// the model failed). Each block is resolved once for all the models.
func (s *Suite) predictRange(ws []*predictWorker, cpu *uarch.CPU, preds []models.Predictor, recs []corpus.Record, out map[string][]float64) {
	arch := memo.For(cpu)
	cols := make([][]float64, len(preds))
	for k, m := range preds {
		cols[k] = out[m.Name()]
	}
	var taken atomic.Int32
	take := func() *predictWorker { return ws[taken.Add(1)-1] }
	parallel(s, len(recs), take, func(w *predictWorker, i int) {
		b := recs[i].Block
		w.resolve(arch, b)
		for k, m := range preds {
			p, err := w.predict(m, b)
			if err != nil {
				p = math.NaN()
			}
			cols[k][i] = p
		}
	})
}

// data returns (and lazily computes, exactly once per microarchitecture)
// the measurements and model predictions for one microarchitecture.
// Concurrent callers share a single computation.
func (s *Suite) data(cpu *uarch.CPU) (*archData, error) {
	return s.arch.do(cpu.Name, func() (*archData, error) { return s.computeArch(cpu) })
}

// journalMeas converts measurements into the checkpoint journal's
// throughput and status columns.
func journalMeas(meas []measurement) (tp []float64, status []int) {
	tp = make([]float64, len(meas))
	status = make([]int, len(meas))
	for i, m := range meas {
		tp[i] = m.tp
		status[i] = int(m.status)
	}
	return tp, status
}

// measEntry is one lane key's measurement pass, computed at most once per
// suite: done closes when v and err are set.
type measEntry struct {
	done chan struct{}
	v    []measurement
	err  error
}

// measured returns the corpus measurements of every lane, index-aligned
// with lanes. A key's pass runs at most once per suite: the keys no
// caller has claimed yet are measured together, block-major, by one
// measureShards pass; keys another caller claimed are waited for.
// Concurrent callers asking for the same key share a single run and its
// result.
func (s *Suite) measured(lanes []lane, met *profiler.Metrics, rejects bool) ([][]measurement, error) {
	entries := make([]*measEntry, len(lanes))
	var mine []lane
	var mineEntries []*measEntry
	s.mu.Lock()
	if s.meas == nil {
		s.meas = make(map[string]*measEntry)
	}
	for i, l := range lanes {
		e := s.meas[l.key]
		if e == nil {
			e = &measEntry{done: make(chan struct{})}
			s.meas[l.key] = e
			mine = append(mine, l)
			mineEntries = append(mineEntries, e)
		}
		entries[i] = e
	}
	s.mu.Unlock()

	if len(mine) > 0 {
		vs, err := s.measureShards(mine, met, rejects)
		for k, e := range mineEntries {
			if err == nil {
				e.v = vs[k]
			}
			e.err = err
			close(e.done)
		}
	}
	out := make([][]measurement, len(lanes))
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		out[i] = e.v
	}
	return out, nil
}

// passMetrics is the sink a measurement pass reports its progress from:
// the run's Metrics, or private counters when the run has none.
func (s *Suite) passMetrics() *profiler.Metrics {
	if s.cfg.Metrics != nil {
		return s.cfg.Metrics
	}
	return new(profiler.Metrics)
}

// modelMeas returns the model-evaluation measurements of every cpu,
// measuring the ones no earlier pass has measured block-major in one pass.
func (s *Suite) modelMeas(cpus []*uarch.CPU) ([][]measurement, error) {
	met := s.passMetrics()
	lanes := make([]lane, len(cpus))
	for i, cpu := range cpus {
		lanes[i] = s.modelLane(cpu, profiler.DefaultOptions(), met)
	}
	return s.measured(lanes, met, true)
}

// measureShards drives one sharded measurement pass over the corpus for a
// set of lanes, each journaled under its own checkpoint key: resume the
// (lane, shard) cells the checkpoint holds, measure the rest block-major
// and persist them, one journal line per lane in lane order after each
// shard. met feeds the progress lines' overall rate and ETA and their
// functional-pass counts; rejects adds each shard's reject-status
// histogram to its line.
//
// StopAfterShards counts journal lines, so a shard measured for k lanes
// spends k. A shard is measured only for as many lanes as the budget has
// left, so an interrupted run has measured exactly what it journaled.
func (s *Suite) measureShards(lanes []lane, met *profiler.Metrics, rejects bool) ([][]measurement, error) {
	ck, err := s.checkpoint()
	if err != nil {
		return nil, err
	}
	n := len(s.recs)
	num := s.numShards(n)
	meas := make([][]measurement, len(lanes))
	planned := 0
	for li := range lanes {
		meas[li] = make([]measurement, n)
		planned += n - s.resumedRecords(ck, lanes[li].key)
	}

	// Register this pass's non-resumed work up front so the per-shard
	// progress lines can carry an overall rate and time-to-finish;
	// AddPlanned is a no-op on a nil sink.
	met.AddPlanned(planned)

	todo := make([]int, 0, len(lanes))
	for si := 0; si < num; si++ {
		lo, hi := s.shardBounds(si, n)
		todo = todo[:0]
		for li, l := range lanes {
			if ck != nil {
				if sh, ok := ck.Shard(l.key, si); ok && measComplete(sh, hi-lo) {
					for i := lo; i < hi; i++ {
						meas[li][i] = measurement{tp: sh.Tp[i-lo], status: profiler.Status(sh.Status[i-lo])}
					}
					s.progressf("[%s] meas shard %d/%d: %d blocks resumed from checkpoint\n",
						l.key, si+1, num, hi-lo)
					continue
				}
			}
			todo = append(todo, li)
		}
		if left := s.shardBudget(); left > 0 && left < len(todo) {
			todo = todo[:left]
		}
		if len(todo) == 0 {
			continue
		}

		start := time.Now()
		before := met.Snapshot()
		sub := make([]lane, len(todo))
		out := make([][]measurement, len(todo))
		for k, li := range todo {
			sub[k], out[k] = lanes[li], meas[li][lo:hi]
		}
		s.measureInto(sub, s.recs[lo:hi], out)
		stop := false
		for k, l := range sub {
			if ck != nil {
				tp, st := journalMeas(out[k])
				if err := ck.PutMeas(l.key, si, tp, st); err != nil {
					return nil, err
				}
			}
			stop = s.spendShard() || stop
		}
		s.measLines(sub, si, num, hi-lo, time.Since(start), met, before, rejects)
		if stop {
			return nil, ErrInterrupted
		}
	}
	return meas, nil
}

// measLines writes one measured shard's progress lines, one per lane
// journaled, as a resumed shard writes one per lane resumed. The first
// lane's line carries the shard's numbers: the other lanes, the rate and
// ETA, the functional passes and the measurements they served, how their
// µop graphs and cache warm-ups were prepared (built or retimed, walked or
// restored), the measurements that could not share a pass and why, and
// with rejects the reject histogram. Its rates count (block, lane)
// measurements, as the overall rate does.
func (s *Suite) measLines(lanes []lane, si, num, blocks int, took time.Duration, met *profiler.Metrics, before profiler.Snapshot, rejects bool) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] meas shard %d/%d: %d blocks", lanes[0].key, si+1, num, blocks)
	if len(lanes) > 1 {
		keys := make([]string, len(lanes)-1)
		for k, l := range lanes[1:] {
			keys[k] = l.key
		}
		fmt.Fprintf(&sb, " (+%s)", strings.Join(keys, ","))
	}
	fmt.Fprintf(&sb, "  %.0f blocks/s%s", float64(blocks*len(lanes))/took.Seconds(), etaSuffix(met))
	delta := met.Snapshot().Sub(before)
	fmt.Fprintf(&sb, "  functional passes %d for %d measurements (graphs %d built, %d retimed; warm-ups %d walked, %d restored)",
		delta.Passes, delta.PassServed, delta.GraphsBuilt, delta.GraphsRetimed, delta.WarmWalks, delta.WarmRestores)
	var alone []string
	for _, l := range lanes {
		if l.alone != "" {
			alone = append(alone, l.key+": "+l.alone)
		}
	}
	if len(alone) > 0 {
		fmt.Fprintf(&sb, "  alone %d (%s)", blocks*len(alone), strings.Join(alone, ", "))
	}
	if rejects {
		fmt.Fprintf(&sb, "  reject: %s", delta.RejectHistogram())
	}
	s.progressf("%s\n", sb.String())
	for _, l := range lanes[1:] {
		s.progressf("[%s] meas shard %d/%d: %d blocks (with %s)\n", l.key, si+1, num, blocks, lanes[0].key)
	}
}

// computeArch drives the sharded measurement and prediction pipeline for
// one microarchitecture: resume completed shards from the checkpoint,
// compute and persist the rest, and stream every shard into the
// incremental aggregators.
func (s *Suite) computeArch(cpu *uarch.CPU) (*archData, error) {
	// Pass 1: measurements, shard by shard — already done when the
	// caller requested its µarch set whole (Table5).
	ms, err := s.modelMeas([]*uarch.CPU{cpu})
	if err != nil {
		return nil, err
	}
	meas := ms[0]
	ck, err := s.checkpoint()
	if err != nil {
		return nil, err
	}
	n := len(s.recs)
	num := s.numShards(n)
	d := &archData{
		meas:    meas,
		preds:   make(map[string][]float64),
		overall: make(map[string]*stats.Running),
		tau:     make(map[string]*stats.TauAcc),
	}

	// Predictors: the analytical models, plus the learned model trained on
	// the (now complete) measurements.
	preds := models.All(cpu)
	if s.cfg.TrainIthemal {
		preds = append(preds, s.ithemalFor(cpu, d.meas))
	}
	for _, m := range preds {
		d.names = append(d.names, m.Name())
		d.preds[m.Name()] = make([]float64, n)
		d.overall[m.Name()] = new(stats.Running)
		tau := new(stats.TauAcc)
		tau.Reserve(n) // one pair per record at most
		d.tau[m.Name()] = tau
	}

	// Pass 2: predictions, shard by shard; every shard (resumed or
	// computed) streams into the aggregators in record order, so resumed
	// runs fold the same values in the same order. The workers, and the
	// models' arenas in them, serve every shard of the pass.
	ws := s.takePredictWorkers()
	defer s.putPredictWorkers(ws)
	for si := 0; si < num; si++ {
		lo, hi := s.shardBounds(si, n)
		shard := make(map[string][]float64, len(d.names))
		for _, name := range d.names {
			shard[name] = d.preds[name][lo:hi]
		}
		resumed := false
		if ck != nil {
			if sh, ok := ck.Shard(cpu.Name, si); ok && sh.PredDone && predsMatch(sh.Preds, d.names, hi-lo) {
				for _, name := range d.names {
					copy(shard[name], sh.Preds[name])
				}
				resumed = true
				s.progressf("[%s] pred shard %d/%d: %d blocks resumed from checkpoint\n",
					cpu.Name, si+1, num, hi-lo)
			}
		}
		if !resumed {
			start := time.Now()
			s.predictRange(ws, cpu, preds, s.recs[lo:hi], shard)
			if ck != nil {
				if err := ck.PutPreds(cpu.Name, si, shard); err != nil {
					return nil, err
				}
			}
			s.progressf("[%s] pred shard %d/%d: %d blocks  %.0f blocks/s  %d models\n",
				cpu.Name, si+1, num, hi-lo,
				float64(hi-lo)/time.Since(start).Seconds(), len(preds))
		}
		s.aggregateShard(d, lo, hi)
		if !resumed && s.spendShard() {
			return nil, ErrInterrupted
		}
	}

	if s.cfg.Progress != nil {
		line := fmt.Sprintf("[%s] done: %d blocks", cpu.Name, n)
		for _, name := range d.names {
			line += fmt.Sprintf("  %s mean=%.4f tau=%.4f", name, d.overall[name].Mean(), d.tau[name].Value())
		}
		s.progressf("%s\n", line)
	}
	return d, nil
}

// aggregateShard streams one shard's accepted (measurement, prediction)
// pairs into the per-model accumulators.
func (s *Suite) aggregateShard(d *archData, lo, hi int) {
	for i := lo; i < hi; i++ {
		if d.meas[i].status != profiler.StatusOK || d.meas[i].tp <= 0 {
			continue
		}
		for _, name := range d.names {
			p := d.preds[name][i]
			if math.IsNaN(p) {
				continue
			}
			d.overall[name].Add(stats.RelError(p, d.meas[i].tp))
			d.tau[name].Add(p, d.meas[i].tp)
		}
	}
}

// measComplete reports whether a checkpointed shard entry holds a
// completed measurement stage for n records: throughputs and statuses
// both of length n, every status a known profiler.Status. A shard that
// fails it is re-profiled instead of resumed.
func measComplete(e ShardEntry, n int) bool {
	if !e.MeasDone || len(e.Tp) != n || len(e.Status) != n {
		return false
	}
	for _, st := range e.Status {
		if st < 0 || st >= profiler.NumStatus {
			return false
		}
	}
	return true
}

// predsMatch verifies a checkpointed prediction shard covers exactly the
// expected models at the expected length (a model-set change must miss).
func predsMatch(got map[string][]float64, names []string, n int) bool {
	if len(got) != len(names) {
		return false
	}
	for _, name := range names {
		if len(got[name]) != n {
			return false
		}
	}
	return true
}

// ithemalFor trains (and caches) the learned model for one CPU on its
// measured corpus.
func (s *Suite) ithemalFor(cpu *uarch.CPU, meas []measurement) *ithemal.Model {
	s.mu.Lock()
	if m, ok := s.learn[cpu.Name]; ok {
		s.mu.Unlock()
		return m
	}
	s.mu.Unlock()

	// The paper's Ithemal authors attribute the model's weakness on
	// vectorized blocks to training-set imbalance: "the majority of
	// [their training data] consists of non-vectorized basic blocks", and
	// more vectorized blocks were left out for lack of reliable
	// measurements. Reproduce that imbalance where it bites: purely-vector
	// kernels (the category-2 population) are rare in training — only one
	// in eight of them is kept.
	var samples []ithemal.Sample
	vecSeen := 0
	for i := range s.recs {
		if meas[i].status != profiler.StatusOK || meas[i].tp <= 0 {
			continue
		}
		if pureVector(s.recs[i].Block) {
			vecSeen++
			if vecSeen%8 != 0 {
				continue
			}
		}
		samples = append(samples, ithemal.Sample{Block: s.recs[i].Block, Throughput: meas[i].tp})
	}
	if len(samples) > ithemalTrainCap {
		samples = samples[:ithemalTrainCap]
	}
	m := ithemal.New(32, 64, s.cfg.Seed)
	tc := ithemal.DefaultTrainConfig()
	if s.cfg.IthemalEpochs > 0 {
		tc.Epochs = s.cfg.IthemalEpochs
	}
	tc.Seed = s.cfg.Seed
	m.Train(samples, tc)

	s.mu.Lock()
	s.learn[cpu.Name] = m
	s.mu.Unlock()
	return m
}

// ithemalModel returns the trained learned model for one µarch (nil if
// not trained); data(cpu) must have completed first.
func (s *Suite) ithemalModel(name string) *ithemal.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.learn[name]
}

// pureVector reports whether every instruction in the block works on
// vector registers — the shape of the paper's category-2.
func pureVector(b *x86.Block) bool {
	if len(b.Insts) == 0 {
		return false
	}
	for i := range b.Insts {
		hasVecReg := false
		for _, a := range b.Insts[i].Args {
			if a.Kind == x86.KindReg && a.Reg.IsVec() {
				hasVecReg = true
			}
		}
		if !hasVecReg {
			return false
		}
	}
	return true
}

// classifier lazily fits the LDA classifier over the corpus (on Haswell,
// as in the paper).
func (s *Suite) classifier() *classify.Classifier {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cls == nil {
		blocks := make([]*x86.Block, len(s.recs))
		for i := range s.recs {
			blocks[i] = s.recs[i].Block
		}
		opts := classify.DefaultOptions()
		opts.Seed = s.cfg.Seed
		s.cls = classify.Fit(uarch.Haswell(), blocks, opts)
	}
	return s.cls
}

// errorCell aggregates one model's error over a filtered record subset.
func (s *Suite) errorCell(d *archData, name string, keep func(i int) bool, weighted bool) string {
	var mean stats.Running
	var wmean stats.RunningWeighted
	for i := range s.recs {
		if d.meas[i].status != profiler.StatusOK || d.meas[i].tp <= 0 || !keep(i) {
			continue
		}
		p := d.preds[name][i]
		if math.IsNaN(p) {
			continue
		}
		e := stats.RelError(p, d.meas[i].tp)
		mean.Add(e)
		wmean.Add(e, s.recs[i].Freq)
	}
	if mean.N() == 0 {
		return "-"
	}
	if weighted {
		return fmt.Sprintf("%.4f", wmean.Mean())
	}
	return fmt.Sprintf("%.4f", mean.Mean())
}

// overallCell renders one model's corpus-wide mean error from the
// streaming aggregate (no per-record walk).
func overallCell(d *archData, name string) string {
	agg := d.overall[name]
	if agg == nil || agg.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", agg.Mean())
}

// appNames returns the corpus applications in stable order.
func (s *Suite) appNames() []string {
	seen := map[string]bool{}
	var out []string
	for i := range s.recs {
		if !seen[s.recs[i].App] {
			seen[s.recs[i].App] = true
			out = append(out, s.recs[i].App)
		}
	}
	sort.Strings(out)
	return out
}
