package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bhive/internal/backend"
	"bhive/internal/blocklint"
	"bhive/internal/bound"
	"bhive/internal/corpus"
	"bhive/internal/exec"
	"bhive/internal/harness"
	"bhive/internal/machine"
	"bhive/internal/models"
	"bhive/internal/profiler"
	"bhive/internal/stats"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the tracer started; Parent 0 is the root; Trace is
// the corpus index of the block the call worked on, -1 for corpus-wide
// calls.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine. A nil *tracer records nothing, so untraced runs share the
// traced code path.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Trace: trace,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// micros returns the durations of every span with the given name, in µs.
func (t *tracer) micros(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ledger is the traced run's walk through every layer on this workload's
// inputs, with a span around each call into a layer's public function:
//
//   - a corpus CSV round trip of the whole corpus;
//   - x86 encode and decode of every block;
//   - for ledgerBlocks blocks spread over the corpus, on each paper µarch:
//     the profiler protocol, a replay of each accepted block at the
//     profiler's high unroll factor through machine and pipeline, both
//     simulator backends, every analytical model, bound and blocklint;
//   - Table V over those blocks through a small-shard group-commit
//     journal, then resumes of it.
//
// It returns the per-layer metrics (see perLayer).
func ledger(tr *tracer, recs []corpus.Record, scale float64, cc childConfig) (map[string]float64, error) {
	root := tr.start("ledger", 0, -1)
	defer tr.end(root)
	m := make(map[string]float64)

	dir, err := os.MkdirTemp(cc.out, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	csvPath := filepath.Join(dir, "corpus.csv")
	id := tr.start("corpus.write_csv", root, -1)
	_, dups, err := writeCorpusCSV(csvPath, recs)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("corpus.read_csv", root, -1)
	_, err = readCorpusCSV(csvPath)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	m["corpus.duplicates"] = float64(dups)

	cpus := uarch.All()
	c := &layerCounts{modelErrors: make(map[string]int)}
	lanes := make([]*layerLane, len(cpus))
	for i, cpu := range cpus {
		lanes[i] = newLayerLane(cpu, c)
	}
	stride := max(1, len(recs)/max(1, cc.ledgerBlocks))
	var sample []corpus.Record
	var decodeErrors int
	for i := range recs {
		b := recs[i].Block
		blockID := tr.start("block", root, i)
		id := tr.start("x86.encode", blockID, i)
		raw, encErr := x86.EncodeBlock(b.Insts)
		tr.end(id)
		if encErr == nil {
			id = tr.start("x86.decode", blockID, i)
			_, err := x86.DecodeBlock(raw)
			tr.end(id)
			if err != nil {
				decodeErrors++
			}
		}
		if i%stride == 0 && len(sample) < cc.ledgerBlocks {
			sample = append(sample, recs[i])
			for _, lane := range lanes {
				if err := lane.walk(tr, blockID, i, b); err != nil {
					tr.end(blockID)
					return nil, fmt.Errorf("block %d on %s: %w", i, lane.cpu.Name, err)
				}
			}
		}
		tr.end(blockID)
	}
	m["x86.decode_errors"] = float64(decodeErrors)

	attempts := float64(len(sample) * len(cpus))
	m["profiler.ok_frac"] = float64(c.status[profiler.StatusOK]) / max(attempts, 1)
	for s := profiler.StatusCrashed; s <= profiler.StatusUnstable; s++ {
		m["profiler.reject."+s.String()] = float64(c.status[s])
	}
	m["machine.pages_mapped"] = float64(c.pages)
	m["pipeline.sim_cycles"] = float64(c.cycles)
	m["pipeline.uops"] = float64(c.uops)
	m["pipeline.ns_per_sim_cycle"] = 1e3 * sum(tr.micros("pipeline.simulate")) / max(float64(c.cycles), 1)
	m["blocklint.rejected"] = float64(c.lintRejected)
	for name, n := range c.modelErrors {
		m["models."+name+".errors"] = float64(n)
	}

	profileBusy := sum(tr.micros("profiler.profile"))
	predictBusy := 0.0
	for _, p := range models.All(cpus[0]) {
		predictBusy += sum(tr.micros("models." + p.Name() + ".predict"))
	}
	m["models.busy_share"] = predictBusy / max(predictBusy+profileBusy, 1)

	if err := harnessSegment(tr, root, sample, scale, cc.seed, dir, m); err != nil {
		return nil, err
	}
	runS := m["harness.run_s"]
	m["harness.overhead_frac"] = 1 - (profileBusy+predictBusy)/1e6/(runS*float64(nproc()))

	for _, name := range timedLayers {
		d := tr.micros(name)
		m[name+"_us.p50"] = stats.Percentile(d, 50)
		m[name+"_us.p99"] = stats.Percentile(d, 99)
	}
	m["corpus.generate_ms"] = sum(tr.micros("corpus.generate")) / 1e3
	m["corpus.read_csv_ms"] = sum(tr.micros("corpus.read_csv")) / 1e3
	return m, nil
}

// timedLayers are the span names reported as p50/p99 per-layer metrics.
var timedLayers = []string{
	"x86.decode", "x86.encode",
	"machine.prepare", "machine.execute",
	"pipeline.build", "pipeline.simulate",
	"profiler.profile",
	"backend.sim.measure", "backend.perturbed.measure",
	"models.IACA.predict", "models.llvm-mca.predict", "models.OSACA.predict", "models.Facile.predict",
	"bound.analyze", "blocklint.analyze",
}

// harnessSegment runs Table V over the sample through a small-shard
// group-commit journal, then resumes it, recording harness metrics.
func harnessSegment(tr *tracer, parent int, sample []corpus.Record, scale float64, seed int64, dir string, m map[string]float64) error {
	cfg := suiteConfig(sample, scale, seed)
	cfg.CheckpointPath = filepath.Join(dir, "ledger.ckpt")
	cfg.ShardSize = journalShardSize
	cfg.FsyncEvery = journalFsyncEvery

	run := func(name string) (string, *harness.Suite, error) {
		id := tr.start(name, parent, -1)
		defer tr.end(id)
		s := harness.New(cfg)
		text, err := s.Run("table5", "")
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		return text, s, err
	}
	cold, s, err := run("harness.run")
	if err != nil {
		return fmt.Errorf("harness segment: %w", err)
	}
	m["harness.run_s"] = sum(tr.micros("harness.run")) / 1e6
	m["harness.shards"] = float64(s.NumCorpusShards() * len(uarch.All()))
	fi, err := os.Stat(cfg.CheckpointPath)
	if err != nil {
		return err
	}
	m["harness.checkpoint.bytes"] = float64(fi.Size())
	for i := 0; i < 3; i++ {
		text, _, err := run("harness.resume")
		if err != nil {
			return fmt.Errorf("harness segment resume: %w", err)
		}
		if text != cold {
			return fmt.Errorf("harness segment: resume %d text differs from the cold run", i)
		}
	}
	m["harness.checkpoint.resume_ms"] = stats.Percentile(tr.micros("harness.resume"), 50) / 1e3
	return nil
}

// layerCounts are the exact simulated counts of a ledger walk, summed over
// its µarches.
type layerCounts struct {
	status       [profiler.NumStatus]int
	pages        int
	cycles, uops uint64
	lintRejected int
	modelErrors  map[string]int
}

// layerLane holds one µarch's layer entry points for the ledger walk.
type layerLane struct {
	cpu      *uarch.CPU
	prof     *profiler.Profiler
	mach     *machine.Machine
	backends []backend.Backend
	preds    []models.Predictor
	lint     *blocklint.Analyzer
	// span names, built once
	beSpans, predSpans []string
	unrolled           []x86.Inst
	counts             *layerCounts
}

func newLayerLane(cpu *uarch.CPU, counts *layerCounts) *layerLane {
	l := &layerLane{
		cpu:      cpu,
		prof:     profiler.New(cpu, profiler.DefaultOptions()),
		mach:     machine.New(cpu, 1),
		backends: []backend.Backend{backend.NewSim(backend.Options{}), backend.NewPerturbedSim(backend.Options{})},
		preds:    models.All(cpu),
		lint:     blocklint.New(cpu, profiler.DefaultOptions()),
		counts:   counts,
	}
	for _, be := range l.backends {
		l.beSpans = append(l.beSpans, "backend."+be.Name()+".measure")
	}
	for _, p := range l.preds {
		l.predSpans = append(l.predSpans, "models."+p.Name()+".predict")
		l.counts.modelErrors[p.Name()] = 0
	}
	return l
}

// walk calls every layer once for block b (corpus index idx).
func (l *layerLane) walk(tr *tracer, parent, idx int, b *x86.Block) error {
	id := tr.start("profiler.profile", parent, idx)
	r := l.prof.Profile(b)
	tr.end(id)
	l.counts.status[r.Status]++
	if r.Status == profiler.StatusOK {
		if err := l.replay(tr, parent, idx, b, r); err != nil {
			return err
		}
	}
	for i, be := range l.backends {
		id := tr.start(l.beSpans[i], parent, idx)
		be.Measure(b, l.cpu)
		tr.end(id)
	}
	for i, p := range l.preds {
		id := tr.start(l.predSpans[i], parent, idx)
		_, err := p.Predict(b)
		tr.end(id)
		if err != nil {
			l.counts.modelErrors[p.Name()]++
		}
	}
	id = tr.start("bound.analyze", parent, idx)
	_, _ = bound.Analyze(l.cpu, b) // failures are blocklint's to report
	tr.end(id)
	id = tr.start("blocklint.analyze", parent, idx)
	rep := l.lint.Analyze(b)
	tr.end(id)
	if rep.Rejected() {
		l.counts.lintRejected++
	}
	return nil
}

// replay re-runs an accepted block's high-unroll measurement step by step
// the way the profiler does — prepare, monitored functional run, graph
// build, warm-up, timed run — and checks the timed run reproduces the
// profiler's counters.
func (l *layerLane) replay(tr *tracer, parent, idx int, b *x86.Block, r profiler.Result) error {
	m := l.mach
	m.Reset()
	l.unrolled = l.unrolled[:0]
	for i := 0; i < r.UnrollHi; i++ {
		l.unrolled = append(l.unrolled, b.Insts...)
	}

	id := tr.start("machine.prepare", parent, idx)
	prog, err := m.PrepareUnrolled(l.unrolled, len(b.Insts))
	tr.end(id)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	opts := l.prof.Opts
	var page *vm.PhysPage
	mapped := 0
	onFault := func(f *vm.Fault) bool {
		if !vm.ValidUserAddress(f.Addr) || mapped >= opts.MaxFaults {
			return false
		}
		if page == nil {
			page = m.AS.NewPhysPage()
			page.Fill(profiler.InitPattern)
		}
		m.AS.Map(f.Addr, page)
		mapped++
		return true
	}
	st := &exec.State{FTZ: true, DAZ: true}
	st.InitRegisters(profiler.InitPattern)
	id = tr.start("machine.execute", parent, idx)
	steps, err := m.ExecuteMonitored(prog, st, onFault)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}

	id = tr.start("pipeline.build", parent, idx)
	g := m.PrepareGraph(prog, steps)
	tr.end(id)
	m.WarmCaches(prog, steps)
	id = tr.start("pipeline.simulate", parent, idx)
	ctr := m.TimeGraph(g, machine.Config{})
	tr.end(id)
	if ctr.Cycles != r.Counters.Cycles || ctr.Uops != r.Counters.Uops {
		return fmt.Errorf("replay timed %d cycles / %d µops, the profiler %d / %d",
			ctr.Cycles, ctr.Uops, r.Counters.Cycles, r.Counters.Uops)
	}
	l.counts.pages += mapped
	l.counts.cycles += ctr.Cycles
	l.counts.uops += ctr.Uops
	return nil
}
