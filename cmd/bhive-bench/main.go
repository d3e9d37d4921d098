// Command bhive-bench measures the repository end to end and layer by
// layer on four workloads, checks every output against pinned digests, and
// compares two result files against the bounds it fixes.
//
// Each workload runs as a closed batch loop: repeats run one at a time,
// each a fresh child process with GOMAXPROCS and the harness worker count
// set to the number of CPUs, so every repeat pays the cold start a CLI
// user pays. All times are host times.
//
// Usage:
//
//	go run . -seed 7                          # all workloads
//	go run . -workload xval -seed 11 -trace 1 # plus a traced run
//	go run . -compare A.json B.json
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"bhive/internal/stats"
)

// metricDef names a metric with its unit and direction. Bound is the
// largest relative worsening of the median that still counts as no
// regression (end-to-end metrics only).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher", "lower" or "exact"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off over the untraced repeats. Throughput counts instructions,
// not blocks: per-block cost follows block length, which varies with the
// seed. The time and memory bounds are wide because run medians on a
// shared 2-vCPU host drift by about 10% (README.md).
var endToEnd = []metricDef{
	{"insts_per_s", "insts/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_bytes_per_inst", "B/inst", "lower", 0.10},
}

// workloadExtras are reported and compared beside the end-to-end metrics
// but exist only on some workloads (resume_s) or are exact simulated
// statistics that a performance change must leave untouched.
var workloadExtras = []metricDef{
	{"blocks_per_s", "blocks/s", "higher", 0},
	{"resume_s", "s", "lower", 0},
	{"profiled_frac", "fraction", "exact", 0},
	{"model_err", "fraction", "exact", 0},
}

// repeatMetrics are the metrics sampled once per untraced repeat.
var repeatMetrics = append(endToEnd[:len(endToEnd):len(endToEnd)], workloadExtras...)

// perLayer are the traced run's metrics (see ledger).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, n := range timedLayers {
		out = append(out, metricDef{Name: n + "_us.p50", Unit: "us", Better: "lower"},
			metricDef{Name: n + "_us.p99", Unit: "us", Better: "lower"})
	}
	// The simulated counts (cycles, µops, statuses, model errors, lint
	// rejects, shards, duplicates) must repeat exactly under a change that
	// only claims speed.
	for _, d := range []struct{ name, unit string }{
		{"x86.decode_errors", "count"},
		{"machine.pages_mapped", "count"},
		{"pipeline.sim_cycles", "count"},
		{"pipeline.uops", "count"},
		{"pipeline.ns_per_sim_cycle", "ns"},
		{"profiler.ok_frac", "fraction"},
		{"profiler.reject.crashed", "count"},
		{"profiler.reject.unsupported", "count"},
		{"profiler.reject.cache-miss", "count"},
		{"profiler.reject.misaligned", "count"},
		{"profiler.reject.unstable", "count"},
		{"models.IACA.errors", "count"},
		{"models.llvm-mca.errors", "count"},
		{"models.OSACA.errors", "count"},
		{"models.Facile.errors", "count"},
		{"models.busy_share", "fraction"},
		{"blocklint.rejected", "count"},
		{"harness.run_s", "s"},
		{"harness.shards", "count"},
		{"harness.overhead_frac", "fraction"},
		{"harness.checkpoint.bytes", "bytes"},
		{"harness.checkpoint.resume_ms", "ms"},
		{"corpus.generate_ms", "ms"},
		{"corpus.read_csv_ms", "ms"},
		{"corpus.duplicates", "count"},
		{"trace.overhead_frac", "fraction"},
	} {
		better := "lower"
		if d.name == "profiler.ok_frac" {
			better = "higher"
		}
		out = append(out, metricDef{Name: d.name, Unit: d.unit, Better: better})
	}
	return out
}()

// ledgerBlocks is how many blocks the traced run walks through every
// layer on each µarch: 3,000 samples per per-µarch span, so p99 has ten
// beyond it, and enough of the long-block tail that models.busy_share
// reads within a few points of the full-corpus split.
const ledgerBlocks = 1000

//go:embed testdata/digests.json
var pinnedJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bhive-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadF = fs.String("workload", "all", "workload to run: table5, xval, lint, journal, or all")
		seed      = fs.Int64("seed", 7, "corpus seed")
		seconds   = fs.Float64("seconds", 30, "keep starting repeats of a workload until this many seconds have passed (at least 3 repeats)")
		traceF    = fs.Int("trace", 0, "1: also do a traced run per workload and report the per-layer metrics")
		scale     = fs.Float64("scale", 1, "multiply every workload's corpus scale")
		out       = fs.String("out", ".bench_out", "directory for results.json, span files and temporary files")
		compare   = fs.Bool("compare", false, "compare two results files given as arguments: -compare A.json B.json")
		child     = fs.Bool("child", false, "run one repeat in this process and print its result as JSON (used by the parent)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bhive-bench: -compare needs two results files")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bhive-bench:", err)
			return 1
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if *traceF != 0 && *traceF != 1 {
		fmt.Fprintln(stderr, "bhive-bench: -trace must be 0 or 1")
		return 2
	}
	if *scale <= 0 {
		fmt.Fprintln(stderr, "bhive-bench: -scale must be positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bhive-bench:", err)
		return 1
	}
	cc := childConfig{workload: *workloadF, seed: *seed, scale: *scale, out: *out,
		traced: *traceF == 1, ledgerBlocks: ledgerBlocks}

	if *child {
		res, err := runChild(cc)
		if err != nil {
			fmt.Fprintln(stderr, "bhive-bench:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bhive-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	var selected []workload
	if *workloadF == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*workloadF)
		if err != nil {
			fmt.Fprintln(stderr, "bhive-bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bhive-bench:", err)
		return 1
	}
	o := benchOptions{seed: *seed, seconds: *seconds, scale: *scale, trace: *traceF == 1, minRepeats: 3}
	rs, err := bench(selected, o, func(w workload) repeatFunc {
		c := cc
		c.workload = w.name
		return spawnRepeat(self, c, stderr)
	}, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bhive-bench:", err)
		return 1
	}
	report(stdout, rs)
	path := filepath.Join(*out, "results.json")
	if err := writeResults(path, rs); err != nil {
		fmt.Fprintln(stderr, "bhive-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	sum := summarize(rs, o.trace)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bhive-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// repeatFunc runs one repeat of a workload, traced or not.
type repeatFunc func(traced bool) (*childResult, error)

// spawnRepeat runs each repeat as a fresh child process of this binary and
// waits for it to exit.
func spawnRepeat(self string, cc childConfig, stderr io.Writer) repeatFunc {
	return func(traced bool) (*childResult, error) {
		args := []string{"-child", "-workload", cc.workload, "-seed", fmt.Sprint(cc.seed),
			"-scale", fmt.Sprint(cc.scale), "-out", cc.out}
		if traced {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", nproc()))
		cmd.Stderr = stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s repeat: %w", cc.workload, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res childResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s repeat: bad result line: %w", cc.workload, err)
		}
		return &res, nil
	}
}

type benchOptions struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	// minRepeats is the fewest untraced repeats per workload, whatever
	// seconds says.
	minRepeats int
}

// sampleSet is one metric's values over the repeats.
type sampleSet struct {
	metricDef
	Samples []float64 `json:"samples"`
}

func (s *sampleSet) quartiles() (q1, med, q3 float64) {
	return stats.Percentile(s.Samples, 25), stats.Percentile(s.Samples, 50), stats.Percentile(s.Samples, 75)
}

// workloadResult is one workload's outcome in a results file.
type workloadResult struct {
	CorpusScale float64 `json:"corpus_scale"`
	Repeats     int     `json:"repeats"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	Digest      string  `json:"digest"`
	// Pinned is the digest testdata/digests.json pins for this seed and
	// scale ("" when none is pinned).
	Pinned   string       `json:"pinned,omitempty"`
	Problems []string     `json:"problems,omitempty"`
	Metrics  []*sampleSet `json:"metrics"`
	Layers   []*sampleSet `json:"layers,omitempty"`
}

// sets returns the end-to-end and extra metrics, then the per-layer ones.
func (r *workloadResult) sets() []*sampleSet {
	return append(append([]*sampleSet(nil), r.Metrics...), r.Layers...)
}

func (r *workloadResult) metric(name string) *sampleSet {
	for _, s := range r.sets() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// hostTag identifies where a results file was measured; -compare gives a
// verdict only between files from the same host.
type hostTag struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

// results is the results file.
type results struct {
	Host      hostTag                    `json:"host"`
	Seed      int64                      `json:"seed"`
	Scale     float64                    `json:"scale"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
	order     []string
}

func currentHost() hostTag {
	h := hostTag{CPU: "unknown", NProc: nproc(), GOMAXPROCS: nproc(), Go: runtime.Version(), Revision: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Revision += "+modified"
		}
	}
	return h
}

// pinKey names a pinned digest: the experiment, seed and corpus scale.
func pinKey(exp string, seed int64, corpusScale float64) string {
	return fmt.Sprintf("%s seed=%d scale=%g", exp, seed, corpusScale)
}

// bench runs every selected workload and collects its results.
func bench(selected []workload, o benchOptions, repeat func(workload) repeatFunc, log io.Writer) (*results, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	rs := &results{Host: currentHost(), Seed: o.seed, Scale: o.scale, Seconds: o.seconds,
		Workloads: map[string]*workloadResult{}}
	for _, w := range selected {
		fmt.Fprintf(log, "bhive-bench: %s: running\n", w.name)
		rs.Workloads[w.name] = benchWorkload(w, o, repeat(w), pins[pinKey(w.exp, o.seed, w.corpusScale(o.scale))])
		rs.order = append(rs.order, w.name)
	}
	return rs, nil
}

// benchWorkload runs untraced repeats until o.seconds have passed (at
// least o.minRepeats), then the traced run if asked, and checks that every
// output agrees with the first and with the pinned digest.
func benchWorkload(w workload, o benchOptions, repeat repeatFunc, pinned string) *workloadResult {
	wr := &workloadResult{CorpusScale: w.corpusScale(o.scale), Pinned: pinned}
	var reps []*childResult
	var runErr error
	start := time.Now()
	for len(reps) < o.minRepeats || time.Since(start).Seconds() < o.seconds {
		r, err := repeat(false)
		if err != nil {
			runErr = err
			break
		}
		reps = append(reps, r)
	}
	var traced *childResult
	if o.trace && runErr == nil {
		traced, runErr = repeat(true)
	}
	wr.Repeats = len(reps)

	all := reps
	if traced != nil {
		all = append(all[:len(all):len(all)], traced)
	}
	unitsPer := 1
	if len(all) > 0 {
		wr.Digest = all[0].Digest
		unitsPer = all[0].Units
	}
	if runErr != nil {
		wr.Attempted += unitsPer
		wr.Failed += unitsPer
		wr.Problems = append(wr.Problems, runErr.Error())
	}
	for i, r := range all {
		wr.Attempted += r.Units
		var problem string
		switch {
		case r.Digest != wr.Digest:
			problem = fmt.Sprintf("run %d digest %s differs from run 0's %s", i, r.Digest, wr.Digest)
		case pinned != "" && r.Digest != pinned:
			problem = fmt.Sprintf("run %d digest %s differs from the pinned %s", i, r.Digest, pinned)
		case r.Mismatch != "":
			problem = fmt.Sprintf("run %d: %s", i, r.Mismatch)
		}
		if problem != "" {
			wr.Failed += r.Units
			wr.Problems = append(wr.Problems, problem)
		}
	}

	var runS []float64
	for _, r := range reps {
		runS = append(runS, r.RunS)
	}
	for _, d := range repeatMetrics {
		set := &sampleSet{metricDef: d}
		for _, r := range reps {
			if v, ok := repeatSample(d.Name, w, r); ok {
				set.Samples = append(set.Samples, v)
			}
		}
		if len(set.Samples) > 0 {
			wr.Metrics = append(wr.Metrics, set)
		}
	}

	if traced != nil {
		layers := traced.Layers
		if layers == nil {
			layers = map[string]float64{}
		}
		layers["trace.overhead_frac"] = traced.RunS/stats.Percentile(runS, 50) - 1
		for _, d := range perLayer {
			v, ok := layers[d.Name]
			if !ok {
				wr.Problems = append(wr.Problems, "traced run did not report "+d.Name)
				wr.Failed += traced.Units
				continue
			}
			wr.Layers = append(wr.Layers, &sampleSet{metricDef: d, Samples: []float64{v}})
		}
	}
	return wr
}

// repeatSample is one repeat's value of an end-to-end or extra metric; ok
// is false where the workload does not have the metric.
func repeatSample(name string, w workload, r *childResult) (v float64, ok bool) {
	switch name {
	case "insts_per_s":
		return float64(r.Insts) / r.RunS, true
	case "setup_s":
		return r.SetupS, true
	case "peak_rss_mb":
		return float64(r.PeakRSSKB) / 1024, true
	case "alloc_bytes_per_inst":
		return float64(r.AllocBytes) / float64(r.Insts), true
	case "blocks_per_s":
		return float64(r.Units) / r.RunS, true
	case "resume_s":
		return stats.Percentile(r.ResumeS, 50), len(r.ResumeS) > 0
	case "profiled_frac":
		return r.ProfiledFrac, true
	case "model_err":
		return r.ModelErr, w.exp == "table5"
	}
	return 0, false
}

// summary is the last line of output: the benchmark's verdict and the
// medians of the metrics the run reports.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize reports the end-to-end medians, or with trace the per-layer
// values. With several workloads each name is prefixed "<workload>/".
func summarize(rs *results, trace bool) summary {
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range rs.order {
		wr := rs.Workloads[name]
		s.Attempted += wr.Attempted
		s.Failed += wr.Failed
		if len(wr.Problems) > 0 {
			s.Correct = false
		}
		prefix := ""
		if len(rs.order) > 1 {
			prefix = name + "/"
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, d := range defs {
			set := wr.metric(d.Name)
			if set == nil {
				s.Correct = false
				continue
			}
			_, med, _ := set.quartiles()
			s.Metrics[prefix+d.Name] = metricValue{Value: med, Unit: d.Unit}
		}
	}
	if s.Attempted == 0 {
		s.Attempted = 1
		s.Failed = 1
		s.Correct = false
	}
	return s
}

// report prints every metric by name with its unit: median, quartiles and
// sample count.
func report(w io.Writer, rs *results) {
	h := rs.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, revision %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Revision)
	for _, name := range rs.order {
		wr := rs.Workloads[name]
		fmt.Fprintf(w, "\n== %s: corpus scale %g, seed %d, %d repeats ==\n", name, wr.CorpusScale, rs.Seed, wr.Repeats)
		fmt.Fprintf(w, "%-36s %-9s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, s := range wr.sets() {
			q1, med, q3 := s.quartiles()
			fmt.Fprintf(w, "%-36s %-9s %14.6g %14.6g %14.6g %3d\n", s.Name, s.Unit, med, q1, q3, len(s.Samples))
		}
		check := "every run agrees"
		if wr.Pinned != "" {
			check += " and matches the pinned digest"
		}
		if len(wr.Problems) > 0 {
			check = "FAILED: " + strings.Join(wr.Problems, "; ")
		}
		fmt.Fprintf(w, "output digest %s: %s (%d of %d units failed)\n", wr.Digest, check, wr.Failed, wr.Attempted)
	}
}

func writeResults(path string, rs *results) error {
	raw, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs results
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	for name := range rs.Workloads {
		rs.order = append(rs.order, name)
	}
	sort.Strings(rs.order)
	return &rs, nil
}
