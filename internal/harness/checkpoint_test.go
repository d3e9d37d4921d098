package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bhive/internal/profiler"
	"bhive/internal/uarch"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")

	ck, err := OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutMeas("haswell", 0, []float64{1, 2.5, 0, 3}, []int{0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutPreds("haswell", 0, map[string][]float64{
		"IACA":  {1.1, 2.4, math.NaN(), 3.2},
		"OSACA": {math.NaN(), math.NaN(), math.NaN(), math.NaN()},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	sh, ok := ck.Shard("haswell", 0)
	if !ok || !sh.MeasDone || !sh.PredDone {
		t.Fatalf("shard not fully replayed: %+v", sh)
	}
	if sh.Tp[1] != 2.5 || sh.Status[2] != 1 {
		t.Fatalf("measurements corrupted: %+v", sh)
	}
	// NaN predictions (failed models) must survive the JSON round-trip.
	if !math.IsNaN(sh.Preds["IACA"][2]) || sh.Preds["IACA"][3] != 3.2 {
		t.Fatalf("preds corrupted: %v", sh.Preds["IACA"])
	}
	for i, v := range sh.Preds["OSACA"] {
		if !math.IsNaN(v) {
			t.Fatalf("OSACA[%d] = %v, want NaN", i, v)
		}
	}
	if _, ok := ck.Shard("haswell", 1); ok {
		t.Fatal("phantom shard")
	}
}

func TestCheckpointIdentityMismatchRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, "fp-a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutMeas("haswell", 0, []float64{1}, []int{0}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Different fingerprint: persisted shards must be discarded, not merged.
	ck, err = OpenCheckpoint(path, "fp-b", 4)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Shards() != 0 {
		t.Fatalf("foreign shards kept: %d", ck.Shards())
	}
	ck.Close()

	// The restart rewrote the file under the new identity; the old one is gone.
	ck, err = OpenCheckpoint(path, "fp-a", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Shards() != 0 {
		t.Fatalf("stale shards resurrected: %d", ck.Shards())
	}
}

func TestCheckpointShardSizeMismatchRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutMeas("haswell", 0, []float64{1}, []int{0}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck, err = OpenCheckpoint(path, "fp", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Shards() != 0 {
		t.Fatalf("shard-size change must restart: %d", ck.Shards())
	}
}

func TestCheckpointTruncatedTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutMeas("haswell", 0, []float64{1, 2}, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Simulate a crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Arch":"haswell","Shard":1,"Stage":"meas","Tp":[9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatalf("truncated trailing line must be tolerated: %v", err)
	}
	if ck.Shards() != 1 {
		t.Fatalf("complete shards lost: %d", ck.Shards())
	}
	// The fragment must be physically gone so this append starts clean.
	if err := ck.PutMeas("haswell", 1, []float64{3, 4}, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"Tp":[9{`) {
		t.Fatal("append landed on the truncated fragment")
	}
	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Shards() != 2 {
		t.Fatalf("post-recovery append lost: %d", ck.Shards())
	}
}

// TestCheckpointTornParseableTrailingLine covers the nastier crash shape:
// the append tore exactly at the record's closing brace, so the fragment
// parses as complete JSON but has no newline. The old loader applied it
// and did not truncate, so the next append concatenated onto it —
// `}{"Arch":…` on one line — and every later open choked on a "corrupt
// journal line". An unterminated line is never durably committed (record
// and newline are one synced write), so it must be dropped like any other
// torn fragment.
func TestCheckpointTornParseableTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutMeas("haswell", 0, []float64{1, 2}, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Complete JSON, missing only the trailing newline.
	if _, err := f.WriteString(`{"Arch":"haswell","Shard":1,"Stage":"meas","Tp":[9],"Status":[0]}`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatalf("torn trailing line must be tolerated: %v", err)
	}
	if ck.Shards() != 1 {
		t.Fatalf("want 1 shard (the torn record was never committed), got %d", ck.Shards())
	}
	if _, ok := ck.Shard("haswell", 1); ok {
		t.Fatal("uncommitted torn record resurrected")
	}
	// The shard in flight during the crash is recomputed and re-appended;
	// the journal must stay line-clean through it.
	if err := ck.PutMeas("haswell", 1, []float64{3, 4}, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `}{`) {
		t.Fatal("append landed on the torn fragment")
	}
	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatalf("journal corrupted by post-recovery append: %v", err)
	}
	defer ck.Close()
	if ck.Shards() != 2 {
		t.Fatalf("post-recovery append lost: %d", ck.Shards())
	}
}

func TestCheckpointMidJournalCorruptionIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A complete (newline-terminated) garbage line is not the crash shape —
	// it must surface as an error, never as silent shard loss.
	if _, err := f.WriteString("not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenCheckpoint(path, "fp", 4); err == nil {
		t.Fatal("corrupt journal line must error")
	}
}

// TestDataSingleflight asserts that concurrent experiments requesting the
// same microarchitecture share one profiling pass: the old code released
// the suite lock between the cache check and the compute, so racing
// callers duplicated the entire measurement run.
func TestDataSingleflight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	cfg.ShardSize = 64
	s := New(cfg)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.data(uarch.Haswell()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got, want := s.profileCalls.Load(), uint64(len(s.recs)); got != want {
		t.Fatalf("%d Profile calls for %d records: concurrent data() duplicated profiling", got, want)
	}
}

// TestResumeAfterInterrupt simulates a killed run: the first suite stops
// after three computed shards (ErrInterrupted), the second one picks up
// the same checkpoint and must produce exactly the output of a run that
// was never interrupted, while re-profiling only the missing shards.
func TestResumeAfterInterrupt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	cfg.ShardSize = 64
	cfg.Workers = 4

	// Reference: same configuration, no checkpoint, no interruption.
	ref, err := New(cfg).Run("table5", "")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg.CheckpointPath = path
	cfg.StopAfterShards = 3
	s1 := New(cfg)
	if _, err := s1.Run("table5", ""); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if got, want := s1.profileCalls.Load(), uint64(3*cfg.ShardSize); got != want {
		t.Fatalf("interrupted run profiled %d blocks, want %d", got, want)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.StopAfterShards = 0
	s2 := New(cfg)
	got, err := s2.Run("table5", "")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got != ref {
		t.Fatalf("resumed output diverged.\n--- resumed ---\n%s\n--- reference ---\n%s", got, ref)
	}
	// The three checkpointed shards must not have been re-profiled.
	want := uint64(3*len(s2.recs) - 3*cfg.ShardSize)
	if got := s2.profileCalls.Load(); got != want {
		t.Fatalf("resumed run profiled %d blocks, want %d (checkpointed shards re-profiled?)", got, want)
	}
}

// TestResumeRejectsMalformedMeasShard: a journaled measurement shard whose
// status array is short, or holds a status outside the profiler's range,
// is not resumed. The run re-profiles that shard and still produces the
// uninterrupted output.
func TestResumeRejectsMalformedMeasShard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	cfg.ShardSize = 64
	cfg.Workers = 4
	ref, err := New(cfg).Run("table5", "")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		status func(n int) []int
	}{
		{"short status", func(int) []int { return []int{0} }},
		{"status out of range", func(n int) []int {
			st := make([]int, n)
			st[n/2] = profiler.NumStatus
			return st
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
			cfg.StopAfterShards = 1
			s1 := New(cfg)
			if _, err := s1.Run("table5", ""); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}

			// Journal a malformed measurement shard 1 for the µarch whose
			// shard 0 the interrupted run completed.
			raw, err := os.ReadFile(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			if len(lines) != 2 {
				t.Fatalf("interrupted journal has %d lines, want a header and one shard", len(lines))
			}
			var first ckptLine
			if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
				t.Fatal(err)
			}
			lo, hi := s1.ShardRange(1)
			bad, err := json.Marshal(ckptLine{Arch: first.Arch, Shard: 1, Stage: "meas",
				Tp: make([]float64, hi-lo), Status: tc.status(hi - lo)})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(cfg.CheckpointPath, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append(bad, '\n')); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			cfg.StopAfterShards = 0
			s2 := New(cfg)
			defer s2.Close()
			got, err := s2.Run("table5", "")
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("resumed output diverged.\n--- resumed ---\n%s\n--- reference ---\n%s", got, ref)
			}
			// Only the well-formed shard 0 is resumed.
			if got, want := s2.profileCalls.Load(), uint64(3*len(s2.recs)-cfg.ShardSize); got != want {
				t.Fatalf("resumed run profiled %d blocks, want %d (malformed shard resumed?)", got, want)
			}
		})
	}
}

// TestResumeMatchesGolden is the acceptance check from the issue: an
// interrupted table5 run at the golden configuration (seed 7, scale
// 0.02), resumed from its checkpoint, must be byte-identical to
// testdata/table5_seed7_scale002.golden.
func TestResumeMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Table V at scale 0.02 twice (tens of seconds)")
	}
	want, err := os.ReadFile("testdata/table5_seed7_scale002.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig() // scale 0.02, seed 7: the golden configuration
	cfg.Workers = 4
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	cfg.StopAfterShards = 3

	s1 := New(cfg)
	if _, err := s1.Run("table5", ""); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	s1.Close()

	cfg.StopAfterShards = 0
	s2 := New(cfg)
	got, err := s2.Run("table5", "")
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if got != string(want) {
		t.Fatalf("resumed Table V diverged from the golden output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestCheckpointCrashSweep cuts a journal at every byte offset and
// reopens it: the checkpoint keeps exactly the records whose lines are
// whole and cuts the rest off, so the next append starts on a line
// boundary. Separately, it zeroes each byte of the last record in turn: a
// damaged record is an error, except a lost newline, which is a torn
// append and drops only that record.
func TestCheckpointCrashSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.ckpt")
	ck, err := OpenCheckpoint(path, "fp", 2)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		shard int
		pred  bool
	}
	recs := []rec{{0, false}, {0, true}, {1, false}, {1, true}}
	for _, r := range recs {
		if r.pred {
			err = ck.PutPreds("haswell", r.shard, map[string][]float64{"IACA": {1.5, math.NaN()}})
		} else {
			err = ck.PutMeas("haswell", r.shard, []float64{1, 2.5}, []int{0, 1})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // ends[i]: length of the header plus i records
	for i, b := range full {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != len(recs)+1 {
		t.Fatalf("journal has %d lines, want %d", len(ends), len(recs)+1)
	}

	cut := filepath.Join(dir, "cut.ckpt")
	reopen := func(raw []byte) (*Checkpoint, error) {
		if err := os.WriteFile(cut, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return OpenCheckpoint(cut, "fp", 2)
	}
	for k := 0; k <= len(full); k++ {
		ck, err := reopen(full[:k])
		if err != nil {
			t.Fatalf("cut at %d: %v", k, err)
		}
		whole, keep := 0, ends[0]
		for i, e := range ends[1:] {
			if e <= k {
				whole, keep = i+1, e
			}
		}
		for i, r := range recs {
			sh, _ := ck.Shard("haswell", r.shard)
			loaded := sh.MeasDone && sh.Tp[1] == 2.5 && sh.Status[1] == 1
			if r.pred {
				loaded = sh.PredDone && math.IsNaN(sh.Preds["IACA"][1])
			}
			if loaded != (i < whole) {
				t.Fatalf("cut at %d: record %d loaded=%v, want %v", k, i, loaded, i < whole)
			}
		}
		ck.Close()
		if raw, _ := os.ReadFile(cut); !bytes.Equal(raw, full[:keep]) {
			t.Fatalf("cut at %d: reopened journal holds %d bytes, want the %d-byte whole-line prefix", k, len(raw), keep)
		}
	}

	for i := ends[len(recs)-1]; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] = 0
		ck, err := reopen(bad)
		if i < len(full)-1 {
			if err == nil {
				t.Fatalf("zeroed byte %d of the last record: OpenCheckpoint succeeded", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("lost newline: %v", err)
		}
		if sh, _ := ck.Shard("haswell", 1); !sh.MeasDone || sh.PredDone {
			t.Fatalf("lost newline: shard 1 = %+v, want measurements only", sh)
		}
		ck.Close()
	}
}

// TestResumeCrashSweepGolden cuts a complete golden-configuration journal
// at each record boundary and one byte either side, and resumes from
// each cut: every resumed Table V must equal the golden byte for byte,
// and the resumed journal must equal the uninterrupted one. Large shards
// keep the journal to a dozen records. A cut one byte either side of a
// boundary must reopen to exactly the bytes of a boundary cut; the run
// that resumes from it is then the boundary's run, so the sweep resumes
// only from boundaries.
func TestResumeCrashSweepGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Sequential deterministic runs: the race detector only slows
		// them; TestResumeMatchesGolden covers resume under -race.
		t.Skip("resumes Table V at scale 0.02 a dozen times")
	}
	want, err := os.ReadFile("testdata/table5_seed7_scale002.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := DefaultConfig() // scale 0.02, seed 7: the golden configuration
	cfg.ShardSize = 4096
	cfg.CheckpointPath = filepath.Join(dir, "full.ckpt")
	run := func() string {
		t.Helper()
		s := New(cfg)
		defer s.Close()
		got, err := s.Run("table5", "")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := run(); got != string(want) {
		t.Fatalf("uninterrupted run diverged from the golden:\n%s", got)
	}
	full, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	fp := runFingerprint(cfg, New(cfg).Records())
	var ends []int
	for i, b := range full {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) < 10 {
		t.Fatalf("journal has %d lines, want a dozen", len(ends))
	}

	cfg.CheckpointPath = filepath.Join(dir, "cut.ckpt")
	cut := func(k int) {
		t.Helper()
		if err := os.WriteFile(cfg.CheckpointPath, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range ends {
		for _, k := range []int{b - 1, b + 1} {
			if k > len(full) {
				continue
			}
			keep := b
			if k < b {
				keep = ends[max(i-1, 0)]
			}
			cut(k)
			ck, err := OpenCheckpoint(cfg.CheckpointPath, fp, cfg.ShardSize)
			if err != nil {
				t.Fatalf("cut at byte %d: %v", k, err)
			}
			ck.Close()
			if raw, _ := os.ReadFile(cfg.CheckpointPath); !bytes.Equal(raw, full[:keep]) {
				t.Fatalf("cut at byte %d reopened to %d bytes, want the %d-byte boundary", k, len(raw), keep)
			}
		}
		cut(b)
		if got := run(); got != string(want) {
			t.Fatalf("resume from the record boundary at byte %d of %d diverged from the golden:\n%s", b, len(full), got)
		}
		if raw, _ := os.ReadFile(cfg.CheckpointPath); !bytes.Equal(raw, full) {
			t.Fatalf("resume from byte %d did not rebuild the journal byte for byte", b)
		}
	}
}

// TestCheckpointGroupCommit pins the group-commit batching: N appends
// share one Sync, Flush drains a partial group, and every line written
// (synced or not) replays after a clean Close.
func TestCheckpointGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetGroupCommit(3)
	for i := 0; i < 7; i++ {
		if err := ck.PutMeas("haswell", i, []float64{float64(i)}, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ck.w.Syncs(); got != 2 {
		t.Fatalf("7 appends at group size 3 took %d syncs, want 2", got)
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := ck.w.Syncs(); got != 3 {
		t.Fatalf("Flush did not sync the partial group: %d syncs, want 3", got)
	}
	if err := ck.Flush(); err != nil { // nothing pending: must not sync again
		t.Fatal(err)
	}
	if got := ck.w.Syncs(); got != 3 {
		t.Fatalf("empty Flush synced: %d syncs, want 3", got)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Shards() != 7 {
		t.Fatalf("replay lost group-committed shards: %d, want 7", ck.Shards())
	}
}

// TestCheckpointCrashMidGroup simulates a hard kill inside a group-commit
// window: several whole lines were written but not synced, and the line in
// flight tore mid-record. Recovery must keep every complete line — whether
// or not its group ever synced — and drop only the torn tail.
func TestCheckpointCrashMidGroup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetGroupCommit(8)
	for i := 0; i < 5; i++ {
		if err := ck.PutMeas("haswell", i, []float64{float64(i)}, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if ck.w.Syncs() != 0 {
		t.Fatalf("group of 8 synced after 5 appends: %d syncs", ck.w.Syncs())
	}
	// Crash: drop the handle without Flush/Close, then tear the tail the
	// way an interrupted append would.
	ck.w = nil
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Arch":"haswell","Shard":5,"Stage":"meas","Tp":[`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatalf("crash mid-group must be recoverable: %v", err)
	}
	if ck.Shards() != 5 {
		t.Fatalf("complete unsynced lines lost: %d shards, want 5", ck.Shards())
	}
	if _, ok := ck.Shard("haswell", 5); ok {
		t.Fatal("torn in-flight record resurrected")
	}
	// The recomputed shard appends cleanly onto the truncated boundary.
	if err := ck.PutMeas("haswell", 5, []float64{5}, []int{0}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck, err = OpenCheckpoint(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Shards() != 6 {
		t.Fatalf("post-recovery append lost: %d shards, want 6", ck.Shards())
	}
}

func TestNaNFloatRoundTrip(t *testing.T) {
	in := map[string][]float64{
		"m1": {1.5, math.NaN(), 3},
		"m2": {math.NaN()},
	}
	raw, err := json.Marshal(ToNaNFloats(in))
	if err != nil {
		t.Fatal(err)
	}
	var dec map[string][]NaNFloat
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	out := FromNaNFloats(dec)
	for name, vs := range in {
		for i, v := range vs {
			got := out[name][i]
			if math.IsNaN(v) != math.IsNaN(got) || (!math.IsNaN(v) && got != v) {
				t.Fatalf("%s[%d]: %v -> %v", name, i, v, got)
			}
		}
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to the journal loader. Any input
// must yield an error or a validLen within the input and on a line
// boundary (0 meaning restart), never a panic, and every entry it loads
// must be safe to validate with measComplete before a resume trusts it.
func FuzzCheckpointLoad(f *testing.F) {
	journal := strings.Join([]string{
		`{"Version":1,"Fingerprint":"fp","ShardSize":4}`,
		`{"Arch":"haswell","Shard":0,"Stage":"meas","Tp":[1,2.5,0,3],"Status":[0,0,1,0]}`,
		`{"Arch":"haswell","Shard":0,"Stage":"pred","Preds":{"IACA":[1.1,null,2,3]}}`,
		`{"Arch":"skylake","Shard":1,"Stage":"meas","Tp":[1,2],"Status":[0,99]}`,
		`{"Arch":"skylake","Shard":2,"Stage":"meas","Tp":[1,2,3,4],"Status":[0]}`,
		``,
	}, "\n")
	for i := 0; i <= len(journal); i++ {
		if i == len(journal) || i%11 == 0 || journal[i] == '\n' {
			f.Add([]byte(journal[:i]))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := &Checkpoint{shards: make(map[shardKey]*ShardEntry)}
		validLen, err := c.load(raw, "fp", 4)
		if err != nil {
			return
		}
		if validLen < 0 || validLen > int64(len(raw)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(raw))
		}
		if validLen == 0 {
			if len(c.shards) != 0 {
				t.Fatalf("restart kept %d shards", len(c.shards))
			}
			return
		}
		if raw[validLen-1] != '\n' {
			t.Fatalf("validLen %d is not at a line boundary", validLen)
		}
		for k, e := range c.shards {
			for _, n := range []int{0, 1, 4, len(e.Tp), len(e.Status)} {
				if !measComplete(*e, n) {
					continue
				}
				if len(e.Status) != n || len(e.Tp) != n {
					t.Fatalf("shard %v: measComplete accepted %d records from %d throughputs and %d statuses",
						k, n, len(e.Tp), len(e.Status))
				}
				for _, st := range e.Status {
					if st < 0 || st >= profiler.NumStatus {
						t.Fatalf("shard %v: measComplete accepted status %d", k, st)
					}
				}
			}
		}
	})
}
