package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bhive/internal/profcache"
	"bhive/internal/profiler"
)

// TestErrorPathStillSavesCache is the regression test for the old
// fatal()/os.Exit(1) bug: a failure after profiling (here, an unwritable
// -memprofile path) must not skip the deferred cache save, or every
// profiled block is silently re-measured on the next run.
func TestErrorPathStillSavesCache(t *testing.T) {
	cacheF := filepath.Join(t.TempDir(), "profiles.cache")
	err := run([]string{
		"-exp", "table1", "-scale", "0.002",
		"-profile-cache", cacheF,
		"-memprofile", filepath.Join(t.TempDir(), "no-such-dir", "mem"),
	}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unwritable -memprofile must fail the run")
	}
	pc, perr := profcache.Open(cacheF)
	if perr != nil {
		t.Fatal(perr)
	}
	if pc.Len() == 0 {
		t.Fatal("profile cache was not saved on the error path")
	}
}

// TestCheckpointedRunFlags drives the new sharding flags end to end: a
// checkpointed table5 run at tiny scale, then a second run over the same
// journal that must produce identical output while resuming every shard.
func TestCheckpointedRunFlags(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	args := []string{
		"-exp", "table5", "-scale", "0.002",
		"-shard-size", "64", "-checkpoint", ckpt, "-progress",
	}

	var out1, prog1 bytes.Buffer
	if err := run(args, &out1, &prog1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog1.String(), "meas shard") {
		t.Fatalf("-progress produced no shard lines:\n%s", prog1.String())
	}

	var out2, prog2 bytes.Buffer
	if err := run(args, &out2, &prog2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("checkpointed re-run diverged.\n--- first ---\n%s\n--- second ---\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(prog2.String(), "resumed from checkpoint") {
		t.Fatalf("re-run did not resume from the journal:\n%s", prog2.String())
	}
}

func TestBadFlagsError(t *testing.T) {
	if err := run([]string{"-exp", "nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// counterFixture is the checked-in counter-backend trace: the stub
// source swept over the generated corpus at scale 0.0005, seed 7, on
// haswell (see scripts/record_smoke.sh for how it is refreshed).
const counterFixture = "../../internal/backend/testdata/counter_haswell.trace"

// TestXValAgainstCounterFixture cross-validates the simulator against
// the checked-in counter-backend trace — a backend that genuinely
// disagrees with the simulator, so the status-disagreement matrix must
// be populated, and the whole report must be byte-stable across runs
// (replay is a pure lookup; the suite is seeded).
func TestXValAgainstCounterFixture(t *testing.T) {
	args := []string{
		"-backend", "sim,recorded:" + counterFixture,
		"-scale", "0.0005", "-seed", "7", "-uarch", "haswell",
	}
	var out1, out2 bytes.Buffer
	if err := run(args, &out1, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out2, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("xval against the fixture is not byte-stable.\n--- first ---\n%s\n--- second ---\n%s", out1.String(), out2.String())
	}

	report := out1.String()
	if !strings.Contains(report, "sim vs counter") {
		t.Fatalf("report never pairs sim with the replayed counter backend:\n%s", report)
	}
	// The disagreement matrix must hold at least one real row: the
	// fixture's injected cache-miss rejections against the simulator's ok.
	_, matrix, found := strings.Cut(report, "xval-status")
	if !found {
		t.Fatalf("report has no status-disagreement section:\n%s", report)
	}
	if !strings.Contains(matrix, "cache-miss") {
		t.Fatalf("status-disagreement matrix is empty or missing the injected cache-miss rows:\n%s", matrix)
	}
}

// TestCrosscheckMismatchFails drives the -crosscheck gate both ways: a
// clean run reports zero mismatches and succeeds; after every cached
// profiling status is flipped (a poisoned profile cache the static
// analyzer disagrees with), the same run must fail.
func TestCrosscheckMismatchFails(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "corpus.csv")
	// mov rax,rcx (ok); xor ecx,ecx; div ecx (#DE, crashed).
	if err := os.WriteFile(csv, []byte("app,hex,freq\nt,4889c8,1\nt,31c9f7f1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheF := filepath.Join(dir, "profiles.cache")
	args := []string{"-exp", "table5", "-corpus", csv, "-uarch", "haswell", "-profile-cache", cacheF, "-crosscheck"}

	var stderr bytes.Buffer
	if err := run(args, io.Discard, &stderr); err != nil {
		t.Fatalf("clean crosscheck failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "crosscheck: 0 static/dynamic mismatches") {
		t.Fatalf("clean run did not report zero mismatches:\n%s", stderr.String())
	}

	// The cache is a header line and one {Key, Entry} record per line:
	// flip the status of every record.
	raw, err := os.ReadFile(cacheF)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 || len(lines[len(lines)-1]) != 0 {
		t.Fatalf("the clean run cached no profiles:\n%s", raw)
	}
	poisoned := append([]byte(nil), lines[0]...)
	for _, line := range lines[1 : len(lines)-1] {
		var rec struct {
			Key   string
			Entry profcache.Entry
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if profiler.Status(rec.Entry.Status) == profiler.StatusOK {
			rec.Entry.Status = int(profiler.StatusCrashed)
		} else {
			rec.Entry.Status = int(profiler.StatusOK)
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		poisoned = append(append(poisoned, out...), '\n')
	}
	if err := os.WriteFile(cacheF, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}

	err = run(args, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "static/dynamic mismatches") {
		t.Fatalf("crosscheck over a poisoned cache returned %v, want a mismatch error", err)
	}
}
