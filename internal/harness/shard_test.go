package harness

import (
	"path/filepath"
	"testing"

	"bhive/internal/uarch"
)

// TestComputeShardFillReplaysByteIdentically is the core distributed-
// evaluation property: a checkpoint journal filled entirely from
// ComputeShard payloads (the worker pipeline) must replay into exactly
// the tables an uninterrupted local run produces — byte-identical text,
// zero local profiling.
func TestComputeShardFillReplaysByteIdentically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	cfg.ShardSize = 64
	cfg.Workers = 4

	// Reference: plain local run.
	ref, err := New(cfg).Run("table5", "")
	if err != nil {
		t.Fatal(err)
	}

	// "Worker": compute every shard through the exported shard API.
	worker := New(cfg)
	fp := worker.Fingerprint()
	path := filepath.Join(t.TempDir(), "filled.ckpt")
	ck, err := OpenCheckpoint(path, fp, cfg.ShardSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, cpu := range uarch.All() {
		names, err := worker.ModelNames(cpu.Name)
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < worker.NumCorpusShards(); si++ {
			p, err := worker.ComputeShard(cpu.Name, si)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := worker.ShardRange(si)
			if len(p.Tp) != hi-lo || len(p.Status) != hi-lo {
				t.Fatalf("shard %d payload covers %d records, want %d", si, len(p.Tp), hi-lo)
			}
			for _, name := range names {
				if len(p.Preds[name]) != hi-lo {
					t.Fatalf("shard %d missing model %s predictions", si, name)
				}
			}
			if err := ck.PutMeas(cpu.Name, si, p.Tp, p.Status); err != nil {
				t.Fatal(err)
			}
			if err := ck.PutPreds(cpu.Name, si, p.Preds); err != nil {
				t.Fatal(err)
			}
			// The journaled entry must pass the same completeness check the
			// coordinator applies before skipping a shard.
			e, ok := ck.Shard(cpu.Name, si)
			if !ok || !ShardComplete(e, names, hi-lo) {
				t.Fatalf("shard %d not complete after fill", si)
			}
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// "Coordinator": replay the filled journal; no local profiling allowed.
	cfg.CheckpointPath = path
	replay := New(cfg)
	if got, want := replay.Fingerprint(), fp; got != want {
		t.Fatalf("fingerprint drift across suites: %s vs %s", got, want)
	}
	out, err := replay.Run("table5", "")
	if err != nil {
		t.Fatal(err)
	}
	if out != ref {
		t.Fatalf("filled-journal replay diverged from the local run.\n--- replay ---\n%s\n--- local ---\n%s", out, ref)
	}
	if n := replay.profileCalls.Load(); n != 0 {
		t.Fatalf("replay profiled %d blocks locally, want 0 (all shards filled)", n)
	}
}

func TestComputeShardValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	s := New(cfg)
	if _, err := s.ComputeShard("zen4", 0); err == nil {
		t.Fatal("unknown microarchitecture accepted")
	}
	if _, err := s.ComputeShard("haswell", -1); err == nil {
		t.Fatal("negative shard accepted")
	}
	if _, err := s.ComputeShard("haswell", s.NumCorpusShards()); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	iCfg := cfg
	iCfg.TrainIthemal = true
	if _, err := New(iCfg).ComputeShard("haswell", 0); err == nil {
		t.Fatal("TrainIthemal configuration must not be distributable")
	}
}

func TestNeedsCorpusData(t *testing.T) {
	for _, id := range []string{"table5", "fig-app-err", "fig-cluster-err", "fig-length-err", "all"} {
		if !NeedsCorpusData(id) {
			t.Errorf("%s should need corpus data", id)
		}
	}
	for _, id := range []string{"table1", "table2", "table3", "table4", "table6", "case-study", "fig-scheduling", XValID} {
		if NeedsCorpusData(id) {
			t.Errorf("%s should not need corpus data", id)
		}
	}
}
