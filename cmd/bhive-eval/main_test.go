package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// allResumed fails unless progress holds shard lines and every one of
// them was resumed from the checkpoint journal.
func allResumed(t *testing.T, progress string) {
	t.Helper()
	n := 0
	for _, line := range strings.Split(progress, "\n") {
		if !strings.Contains(line, " shard ") {
			continue
		}
		n++
		if !strings.Contains(line, "resumed from checkpoint") {
			t.Fatalf("a shard was computed again instead of resumed: %q\n%s", line, progress)
		}
	}
	if n == 0 {
		t.Fatalf("-progress printed no shard lines:\n%s", progress)
	}
}

// TestErrorPathStillResumes: a run that fails after its evaluation (here,
// on an unwritable -memprofile path) goes through the same deferred
// cleanups as a clean one and leaves every shard in its checkpoint, so
// the rerun resumes them all and prints the same tables.
func TestErrorPathStillResumes(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-exp", "table5", "-scale", "0.002", "-shard-size", "64",
		"-checkpoint", filepath.Join(dir, "run.ckpt"),
	}
	var out1 bytes.Buffer
	err := run(append(args, "-memprofile", filepath.Join(dir, "no-such-dir", "mem")), &out1, io.Discard)
	if err == nil {
		t.Fatal("unwritable -memprofile must fail the run")
	}

	var out2, prog2 bytes.Buffer
	if err := run(append(args, "-progress"), &out2, &prog2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("rerun diverged.\n--- failed run ---\n%s\n--- rerun ---\n%s", out1.String(), out2.String())
	}
	allResumed(t, prog2.String())
}

// TestSecondExperimentResumes: the journal is keyed by the run, not by the
// experiment, so a second experiment over the same corpus and options
// resumes every shard the first one measured and predicted.
func TestSecondExperimentResumes(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	common := []string{"-scale", "0.002", "-shard-size", "64", "-checkpoint", ckpt}
	if err := run(append([]string{"-exp", "table5"}, common...), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var prog bytes.Buffer
	if err := run(append([]string{"-exp", "fig-app-err", "-progress"}, common...), io.Discard, &prog); err != nil {
		t.Fatal(err)
	}
	allResumed(t, prog.String())
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
// clean run reports zero mismatches and succeeds, and any mismatch fails
// the run. No corpus makes the static and dynamic verdicts disagree, so
// the counting of a real mismatch is internal/harness's
// TestCrosscheckMismatchCounted.
func TestCrosscheckMismatchFails(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "corpus.csv")
	// mov rax,rcx (ok); xor ecx,ecx; div ecx (#DE, crashed).
	if err := os.WriteFile(csv, []byte("app,hex,freq\nt,4889c8,1\nt,31c9f7f1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-exp", "table5", "-corpus", csv, "-uarch", "haswell", "-crosscheck"}

	var stderr bytes.Buffer
	if err := run(args, io.Discard, &stderr); err != nil {
		t.Fatalf("clean crosscheck failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "crosscheck: 0 static/dynamic mismatches") {
		t.Fatalf("clean run did not report zero mismatches:\n%s", stderr.String())
	}

	stderr.Reset()
	err := crosscheckVerdict(2, &stderr)
	if err == nil || err.Error() != "crosscheck: 2 static/dynamic mismatches" || stderr.Len() != 0 {
		t.Fatalf("two mismatches gave %v (stderr %q), want a failed run", err, stderr.String())
	}
}
