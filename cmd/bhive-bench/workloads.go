package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bhive/internal/backend"
	"bhive/internal/blocklint"
	"bhive/internal/bound"
	"bhive/internal/corpus"
	"bhive/internal/harness"
	"bhive/internal/profiler"
	"bhive/internal/stats"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// workload is one input set and the timed phase it drives. Each stresses a
// different layer mix, so a change to one layer shows on one workload and
// reads as no change on another (see README.md for the layer map).
type workload struct {
	name string
	// scale is the corpus scale at -scale 1 (1.0 = the paper's 358,561
	// blocks); -scale multiplies it.
	scale float64
	// exp names the experiment whose text the digest pins; the journal
	// workload pins the same text as table5.
	exp string
}

var workloads = []workload{
	// The paper's headline table: prediction is ~80% of its host time, so
	// a models change shows at full strength.
	{"table5", 0.03, "table5"},
	// Measurement only (sim vs perturbed backends), zero model work:
	// profiler, machine and pipeline changes show; models changes must not.
	{"xval", 0.10, "xval"},
	// The static path (x86 decode, blocklint, bound) over a corpus CSV,
	// with no simulation.
	{"lint", 0.08, "lint"},
	// table5 through a small-shard group-commit checkpoint journal, then
	// resumes of it: the harness write and read paths.
	{"journal", 0.03, "table5"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have table5, xval, lint, journal)", name)
}

// corpusScale is the workload's corpus scale under the -scale factor,
// rounded so that the value prints (and reproduces on bhive-eval) exactly.
func (w workload) corpusScale(factor float64) float64 {
	return math.Round(w.scale*factor*1e6) / 1e6
}

// Journal settings of the journal workload and of the traced harness
// segment: small shards and group commit, the configuration whose write
// path is most sensitive to per-shard overhead.
const (
	journalShardSize  = 64
	journalFsyncEvery = 8
	journalResumes    = 10
)

// setupRounds is how many times a repeat sets its workload up.
const setupRounds = 3

// childConfig is one repeat: a fresh process (or, in tests, a call) that
// sets the workload up, runs its timed phase once and reports.
type childConfig struct {
	workload string
	seed     int64
	scale    float64 // the -scale factor
	out      string  // temporary files and span files go here
	traced   bool
	// ledgerBlocks is how many blocks the traced run walks through every
	// layer (see ledger).
	ledgerBlocks int
}

// childResult is what one repeat reports to the parent.
type childResult struct {
	Units      int     `json:"units"` // block × µarch [× backend] units in the timed phase
	Insts      int     `json:"insts"` // the units' static instructions
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSKB  int64   `json:"peak_rss_kb"`
	Digest     string  `json:"digest"`
	// Mismatch describes an output that disagreed within the repeat (a
	// resumed journal whose text differs from the cold run).
	Mismatch     string             `json:"mismatch,omitempty"`
	ResumeS      []float64          `json:"resume_s,omitempty"`
	ProfiledFrac float64            `json:"profiled_frac"`
	ModelErr     float64            `json:"model_err,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

// phase is a workload after set-up: the timed phase covers every record
// of recs on each of lanes (µarch [× backend]) pairings; run is the timed
// phase and returns the text the digest covers; after runs untimed
// follow-up work; close releases set-up resources.
type phase struct {
	recs  []corpus.Record
	lanes int
	run   func(res *childResult) (string, error)
	after func(res *childResult, text string) error
	close func()
}

// nproc is the worker count: harness.Config.Workers, the lint pool and the
// children's GOMAXPROCS all use it.
func nproc() int { return runtime.NumCPU() }

// runChild executes one repeat of a workload.
func runChild(cc childConfig) (*childResult, error) {
	w, err := workloadByName(cc.workload)
	if err != nil {
		return nil, err
	}
	scale := w.corpusScale(cc.scale)
	var tr *tracer
	if cc.traced {
		tr = newTracer()
	}
	res := &childResult{}

	// Set-up is short and noisy, so it runs setupRounds times and reports
	// the median; the last round's state is kept and only it is traced.
	var (
		recs   []corpus.Record
		ph     *phase
		setups []float64
	)
	for round := 0; round < setupRounds; round++ {
		if ph != nil {
			ph.close()
		}
		rt := tr
		if round < setupRounds-1 {
			rt = nil
		}
		start := time.Now()
		setupID := rt.start("setup", 0, -1)
		genID := rt.start("corpus.generate", setupID, -1)
		recs = corpus.GenerateAll(scale, cc.seed)
		rt.end(genID)
		ph, err = setupWorkload(w, recs, scale, cc)
		rt.end(setupID)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
	}
	res.SetupS = stats.Percentile(setups, 50)
	defer ph.close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runID := tr.start("run", 0, -1)
	start := time.Now()
	text, err := ph.run(res)
	res.RunS = time.Since(start).Seconds()
	tr.end(runID)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("%s: timed phase: %w", w.name, err)
	}
	res.Units = len(ph.recs) * ph.lanes
	for _, r := range ph.recs {
		res.Insts += len(r.Block.Insts) * ph.lanes
	}
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Digest = digest(text)
	if ph.after != nil {
		if err := ph.after(res, text); err != nil {
			return nil, err
		}
	}

	if cc.traced {
		res.Layers, err = ledger(tr, recs, scale, cc)
		if err != nil {
			return nil, fmt.Errorf("%s: traced ledger: %w", w.name, err)
		}
		if err := tr.write(filepath.Join(cc.out, w.name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.PeakRSSKB = ru.Maxrss // kilobytes on Linux
	return res, nil
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// suiteConfig mirrors what bhive-eval builds for `-exp <id> -scale <s>
// -seed <n>`, so the suite's text is byte-identical to the CLI's stdout.
func suiteConfig(recs []corpus.Record, scale float64, seed int64) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.Records = recs
	cfg.Workers = nproc()
	cfg.Metrics = new(profiler.Metrics)
	return cfg
}

func setupWorkload(w workload, recs []corpus.Record, scale float64, cc childConfig) (*phase, error) {
	switch w.name {
	case "table5":
		cfg := suiteConfig(recs, scale, cc.seed)
		s := harness.New(cfg)
		return &phase{
			recs:  recs,
			lanes: len(uarch.All()),
			run:   func(res *childResult) (string, error) { return runTable5(s, cfg, res) },
			close: func() { s.Close() },
		}, nil

	case "xval":
		cfg := suiteConfig(recs, scale, cc.seed)
		bes, err := backend.ParseList("sim,perturbed", backend.Options{Metrics: cfg.Metrics})
		if err != nil {
			return nil, err
		}
		cfg.Backends = bes
		s := harness.New(cfg)
		return &phase{
			recs:  recs,
			lanes: len(uarch.All()) * len(bes),
			run: func(res *childResult) (string, error) {
				text, err := s.Run(harness.XValID, "")
				res.ProfiledFrac = okFrac(cfg.Metrics)
				return text, err
			},
			close: func() {
				for _, be := range bes {
					be.Close()
				}
			},
		}, nil

	case "lint":
		dir, err := os.MkdirTemp(cc.out, "lint-")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "corpus.csv")
		rows, _, err := writeCorpusCSV(path, recs)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return &phase{
			recs:  rows,
			lanes: len(uarch.Extended()),
			run:   func(*childResult) (string, error) { return runLint(path) },
			close: func() { os.RemoveAll(dir) },
		}, nil

	case "journal":
		dir, err := os.MkdirTemp(cc.out, "journal-")
		if err != nil {
			return nil, err
		}
		cfg := suiteConfig(recs, scale, cc.seed)
		cfg.CheckpointPath = filepath.Join(dir, "run.ckpt")
		cfg.ShardSize = journalShardSize
		cfg.FsyncEvery = journalFsyncEvery
		s := harness.New(cfg)
		return &phase{
			recs:  recs,
			lanes: len(uarch.All()),
			run: func(res *childResult) (string, error) {
				text, err := runTable5(s, cfg, res)
				if cerr := s.Close(); err == nil {
					err = cerr
				}
				return text, err
			},
			after: func(res *childResult, cold string) error {
				for i := 0; i < journalResumes; i++ {
					start := time.Now()
					rs := harness.New(cfg)
					text, err := rs.Run("table5", "")
					if cerr := rs.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						return fmt.Errorf("journal resume %d: %w", i, err)
					}
					res.ResumeS = append(res.ResumeS, time.Since(start).Seconds())
					if text != cold && res.Mismatch == "" {
						res.Mismatch = fmt.Sprintf("resume %d digest %s differs from the cold run's %s", i, digest(text), digest(cold))
					}
				}
				return nil
			},
			close: func() { os.RemoveAll(dir) },
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

// runTable5 runs Table V and records the exact statistics beside its text:
// the profiled share of the suite (paper Table I) and the mean model error.
func runTable5(s *harness.Suite, cfg harness.Config, res *childResult) (string, error) {
	rr, err := s.RunStructured("table5", "")
	if err != nil {
		return "", err
	}
	res.ProfiledFrac = okFrac(cfg.Metrics)
	res.ModelErr = meanModelErr(rr.Tables[0])
	return rr.Text, nil
}

func okFrac(met *profiler.Metrics) float64 {
	snap := met.Snapshot()
	if t := snap.Total(); t > 0 {
		return float64(snap.ByStatus[profiler.StatusOK]) / float64(t)
	}
	return 0
}

// meanModelErr averages the Table V error column over (µarch × model).
func meanModelErr(t *harness.Table) float64 {
	sum, n := 0.0, 0
	for _, row := range t.Rows {
		if v, err := strconv.ParseFloat(row[len(row)-1], 64); err == nil {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// writeCorpusCSV writes recs as a corpus CSV, dropping repeated (app, hex)
// rows: corpus.GenerateAll can emit them and corpus.ReadCSVRaw rejects
// them. It returns the records written and the number dropped.
func writeCorpusCSV(path string, recs []corpus.Record) (kept []corpus.Record, dups int, err error) {
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		h, err := r.Block.Hex()
		if err != nil {
			return nil, 0, err
		}
		key := r.App + "\x00" + h
		if seen[key] {
			dups++
			continue
		}
		seen[key] = true
		kept = append(kept, r)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	if err := corpus.WriteCSV(f, kept); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	return kept, dups, nil
}

func readCorpusCSV(path string) ([]corpus.RawRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.ReadCSVRaw(f)
}

// runLint reads the corpus CSV and analyzes every row on every extended
// µarch, statically (blocklint) and with the cycle bounds. The returned
// text has one line per (row, µarch) in row order.
func runLint(path string) (string, error) {
	rows, err := readCorpusCSV(path)
	if err != nil {
		return "", err
	}
	cpus := uarch.Extended()
	lints := make([]*blocklint.Analyzer, len(cpus))
	for i, cpu := range cpus {
		lints[i] = blocklint.New(cpu, profiler.DefaultOptions())
	}
	lines := make([]string, len(rows))
	parallel(len(rows), func(i int) {
		row := rows[i]
		b, decErr := x86.BlockFromHex(row.Hex)
		var sb strings.Builder
		for ci, cpu := range cpus {
			rep := lints[ci].AnalyzeHex(row.Hex)
			fmt.Fprintf(&sb, "%d %s %s exact=%t", row.Line, cpu.Name, rep.PredictedName, rep.Exact)
			for _, d := range rep.Diags {
				sb.WriteString(" " + d.Code.String())
			}
			if decErr == nil {
				if bd, err := bound.Analyze(cpu, b); err == nil {
					fmt.Fprintf(&sb, " bound=%.6g/%.6g/%s", bd.Lower, bd.Upper, bd.VerdictString())
				} else {
					sb.WriteString(" bound=error")
				}
			}
			sb.WriteByte('\n')
		}
		lines[i] = sb.String()
	})
	return strings.Join(lines, ""), nil
}

// parallel calls f(0..n-1) on nproc workers and returns when all are done.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
