package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bhive/internal/backend"
	"bhive/internal/corpus"
	"bhive/internal/profiler"
)

// xvalConfig is a small, fast cross-validation configuration: a sub-1%
// corpus so the full sharded pipeline (multiple shards per backend) runs
// in well under a second per backend.
func xvalConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.0005
	cfg.Seed = 7
	cfg.Workers = 4
	cfg.ShardSize = 64
	cfg.Records = corpus.GenerateAll(cfg.Scale, cfg.Seed)
	return cfg
}

// TestXValGolden pins the sim-only cross-validation report (seed 7,
// scale 0.002) byte-for-byte, the same determinism contract the Table V
// golden enforces for the model pipeline.
func TestXValGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the corpus at scale 0.002 (seconds)")
	}
	want, err := os.ReadFile("testdata/xval_sim_seed7_scale0002.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	cfg.Workers = 4
	got, err := New(cfg).Run(XValID, "")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("xval report diverged from the recorded output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestXValRecordReplayByteIdentity is the tentpole acceptance contract:
// recording a sim run to a trace and replaying that trace must reproduce
// the sim-only report byte-for-byte.
func TestXValRecordReplayByteIdentity(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "sim.trace")

	// Plain sim run.
	cfg := xvalConfig(t)
	cfg.Backends = []backend.Backend{backend.NewSim(backend.Options{})}
	plain, err := New(cfg).Run(XValID, "")
	if err != nil {
		t.Fatal(err)
	}

	// Recording run: transparent, so its report equals the plain one.
	rec, err := backend.NewRecorder(backend.NewSim(backend.Options{}), trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg = xvalConfig(t)
	cfg.Backends = []backend.Backend{rec}
	recorded, err := New(cfg).Run(XValID, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if recorded != plain {
		t.Fatalf("recording changed the report.\n--- recorded ---\n%s\n--- plain ---\n%s", recorded, plain)
	}

	// Replay run: no simulation at all, same bytes.
	rb, err := backend.OpenTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg = xvalConfig(t)
	cfg.Backends = []backend.Backend{rb}
	replayed, err := New(cfg).Run(XValID, "")
	if err != nil {
		t.Fatal(err)
	}
	if replayed != plain {
		t.Fatalf("replay diverged from the sim report.\n--- replayed ---\n%s\n--- plain ---\n%s", replayed, plain)
	}
}

// TestXValPairwise checks the report shape over two live backends: every
// µarch gets a coverage row per backend, one pairwise row, and the
// pairwise columns are populated.
func TestXValPairwise(t *testing.T) {
	cfg := xvalConfig(t)
	bes, err := backend.ParseList("sim,perturbed", backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backends = bes
	rr, err := New(cfg).RunStructured(XValID, "haswell")
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Tables) != 3 {
		t.Fatalf("got %d tables, want 3 (coverage, pairwise, status)", len(rr.Tables))
	}
	cov, pair := rr.Tables[0], rr.Tables[1]
	if len(cov.Rows) != 2 {
		t.Fatalf("coverage rows = %d, want 2 (one per backend)", len(cov.Rows))
	}
	if len(pair.Rows) != 1 {
		t.Fatalf("pairwise rows = %d, want 1", len(pair.Rows))
	}
	row := pair.Rows[0]
	if row[0] != "haswell" || row[1] != "sim vs perturbed" {
		t.Fatalf("pairwise row identity: %v", row[:2])
	}
	for i, col := range []string{"both-OK", "error", "tau", "agreement"} {
		if row[2+i] == "" {
			t.Errorf("pairwise column %s is empty", col)
		}
	}
	if !strings.HasSuffix(row[5], "%") {
		t.Errorf("status agreement %q not a percentage", row[5])
	}
}

// TestXValCheckpointResume drives the xval pipeline through the same
// interrupt/resume cycle the model pipeline supports: a shard-budgeted
// run stops with ErrInterrupted, and the re-run resumes from the journal
// and produces a byte-identical report.
func TestXValCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "xval.ckpt")

	uninterrupted := func() string {
		cfg := xvalConfig(t)
		cfg.Backends = []backend.Backend{backend.NewSim(backend.Options{})}
		out, err := New(cfg).Run(XValID, "")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()

	cfg := xvalConfig(t)
	cfg.Backends = []backend.Backend{backend.NewSim(backend.Options{})}
	cfg.CheckpointPath = ckpt
	cfg.StopAfterShards = 1
	s := New(cfg)
	_, err := s.Run(XValID, "")
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("budgeted run: err = %v, want ErrInterrupted", err)
	}
	s.Close()

	var progress bytes.Buffer
	cfg = xvalConfig(t)
	cfg.Backends = []backend.Backend{backend.NewSim(backend.Options{})}
	cfg.CheckpointPath = ckpt
	cfg.Progress = &progress
	s = New(cfg)
	defer s.Close()
	resumed, err := s.Run(XValID, "")
	if err != nil {
		t.Fatal(err)
	}
	if resumed != uninterrupted {
		t.Fatalf("resumed report diverged.\n--- resumed ---\n%s\n--- want ---\n%s", resumed, uninterrupted)
	}
	if !strings.Contains(progress.String(), "resumed from checkpoint") {
		t.Fatalf("no shard resumed from checkpoint; progress:\n%s", progress.String())
	}
}

// TestXValDefaultBackend: with no backends configured the experiment
// reduces to a single-sim coverage report — Names() stays the paper's
// table set, and AllNames advertises the extension.
func TestXValDefaultBackend(t *testing.T) {
	cfg := xvalConfig(t)
	rr, err := New(cfg).RunStructured(XValID, "haswell")
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Tables[0].Rows) != 1 || rr.Tables[0].Rows[0][1] != "sim" {
		t.Fatalf("default backend coverage rows: %v", rr.Tables[0].Rows)
	}
	if len(rr.Tables[1].Rows) != 0 {
		t.Fatalf("single backend produced pairwise rows: %v", rr.Tables[1].Rows)
	}
	for _, n := range Names() {
		if n == XValID {
			t.Fatal("xval leaked into Names(); -exp all would double profiling cost")
		}
	}
	found := false
	for _, n := range AllNames() {
		if n == XValID {
			found = true
		}
	}
	if !found {
		t.Fatal("AllNames() missing xval")
	}
}

// measureOnly hides a backend's profiler, so the harness measures it
// through Measure alone.
type measureOnly struct{ backend.Backend }

// TestXValSharesFunctionalPass: with sim and perturbed on the three paper
// µarchs, the six keys of a block share one functional pass — at most one
// pass per block where a key-by-key pass ran six — and every shard's
// progress line counts the passes and the measurements they served. A
// backend on other profiler options, or a Recorder (which must see every
// measurement), cannot share the pass, and its keys are named on the line
// as measured alone.
func TestXValSharesFunctionalPass(t *testing.T) {
	cfg := xvalConfig(t)
	met := new(profiler.Metrics)
	cfg.Metrics = met
	bopts := backend.Options{Metrics: met}
	cfg.Backends = []backend.Backend{backend.NewSim(bopts), backend.NewPerturbedSim(bopts)}
	var progress bytes.Buffer
	cfg.Progress = &progress
	s := New(cfg)
	if _, err := s.Run(XValID, ""); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	blocks := uint64(len(s.Records()))
	if snap.Passes == 0 || snap.Passes > blocks {
		t.Fatalf("%d functional passes for %d blocks, want between 1 and one per block", snap.Passes, blocks)
	}
	if snap.PassServed <= 4*snap.Passes {
		t.Errorf("%d passes served only %d measurements of six keys", snap.Passes, snap.PassServed)
	}
	// One line per journaled (key, shard); the first key's line carries
	// the shard's numbers.
	lines, heads := 0, 0
	for _, line := range strings.Split(progress.String(), "\n") {
		if !strings.Contains(line, "] meas shard ") {
			continue
		}
		lines++
		if strings.HasPrefix(line, "[ivybridge@sim] ") {
			heads++
			if !strings.Contains(line, " (+ivybridge@perturbed,haswell@sim,haswell@perturbed,skylake@sim,skylake@perturbed)") ||
				!strings.Contains(line, "functional passes ") || strings.Contains(line, "alone") {
				t.Errorf("progress line %q: want six shared keys and their pass count", line)
			}
		} else if !strings.HasSuffix(line, " blocks (with ivybridge@sim)") {
			t.Errorf("progress line %q: want a key measured with the shard's first key", line)
		}
	}
	if want := 6 * s.NumCorpusShards(); lines != want || heads != s.NumCorpusShards() {
		t.Errorf("%d measurement progress lines (%d with the shard's numbers) for %d shards of six keys",
			lines, heads, s.NumCorpusShards())
	}

	// A backend on other profiler options measures alone, and the
	// report equals one measured entirely through Measure.
	modeled := profiler.DefaultOptions()
	modeled.ModeledFrontEnd = true
	mixed := func(hide bool) (string, string) {
		bes := []backend.Backend{
			backend.NewSim(backend.Options{}),
			backend.NewPerturbedSim(backend.Options{Profiler: &modeled}),
		}
		if hide {
			for i, be := range bes {
				bes[i] = measureOnly{be}
			}
		}
		cfg := xvalConfig(t)
		cfg.Backends = bes
		var progress bytes.Buffer
		cfg.Progress = &progress
		out, err := New(cfg).Run(XValID, "haswell")
		if err != nil {
			t.Fatal(err)
		}
		return out, progress.String()
	}
	shared, sharedProgress := mixed(false)
	alone, _ := mixed(true)
	if shared != alone {
		t.Errorf("xval report measured from shared passes diverged from Measure's.\n--- shared ---\n%s\n--- Measure ---\n%s", shared, alone)
	}
	if !strings.Contains(sharedProgress, "alone 64 (haswell@perturbed: different options)") {
		t.Errorf("a backend on other options not reported as measured alone:\n%s", sharedProgress)
	}

	cfg = xvalConfig(t)
	rec, err := backend.NewRecorder(backend.NewSim(backend.Options{}), filepath.Join(t.TempDir(), "sim.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	cfg.Backends = []backend.Backend{rec}
	progress.Reset()
	cfg.Progress = &progress
	if _, err := New(cfg).Run(XValID, "haswell"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "alone 64 (haswell@sim: recorder)") {
		t.Errorf("recorder keys not reported as measured alone:\n%s", progress.String())
	}
}
