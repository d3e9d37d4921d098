package harness

import (
	"fmt"

	"bhive/internal/models"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
)

// This file is the harness's distributed-evaluation surface: everything a
// remote worker needs to compute one shard of the corpus independently,
// and everything a coordinator needs to decide which shards are missing
// and validate what comes back. The shard geometry, the fingerprint, and
// the per-shard computation are exactly the ones the local pipeline
// (computeArch) uses, so a journal filled from worker payloads replays
// byte-identically to a single-node run.

// ShardPayload is one computed shard: the per-record measurements and
// per-model predictions, exactly the data a checkpoint journal line
// holds. The coordinator journals it and derives every aggregate from
// the journal's replay.
type ShardPayload struct {
	Arch  string
	Shard int

	// Tp/Status are index-aligned over the shard's record range.
	Tp     []float64
	Status []int
	// Preds maps model name to per-record predictions (NaN = the model
	// failed on that record).
	Preds map[string][]float64
}

// Fingerprint returns the run identity checkpoints (and distributed shard
// leases) are bound to. It is derived from the full configuration and
// corpus content, so two Suites built from the same normalized request
// agree on it across processes.
func (s *Suite) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fp == "" {
		s.fp = runFingerprint(s.cfg, s.recs)
	}
	return s.fp
}

// NumCorpusShards is the number of shards covering the corpus.
func (s *Suite) NumCorpusShards() int { return s.numShards(len(s.recs)) }

// ShardRange returns the [lo, hi) record range of shard si.
func (s *Suite) ShardRange(si int) (lo, hi int) { return s.shardBounds(si, len(s.recs)) }

// ShardSize exposes the effective shard size (Config.ShardSize after
// defaulting).
func (s *Suite) ShardSize() int { return s.cfg.ShardSize }

// ModelNames returns the prediction-model set (in evaluation order) for
// one microarchitecture — the keys a complete prediction shard must
// carry. The learned model is excluded: it trains on the whole measured
// corpus and is never computed shard-locally, so configurations with
// TrainIthemal are not distributable.
func (s *Suite) ModelNames(archName string) ([]string, error) {
	cpu, err := uarch.ByName(archName)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, m := range models.All(cpu) {
		names = append(names, m.Name())
	}
	return names, nil
}

// ShardComplete reports whether a checkpointed shard entry holds both
// completed stages at the expected record count and model set — the
// validation computeArch applies before resuming a shard, exposed so a
// distributed coordinator skips exactly the shards a local run would.
func ShardComplete(e ShardEntry, names []string, n int) bool {
	return measComplete(e, n) && e.PredDone && predsMatch(e.Preds, names, n)
}

// NeedsCorpusData reports whether an experiment id drives the sharded
// corpus measurement/prediction passes (the work a distributed fill
// precomputes). Experiments outside this set profile their own private
// corpora (ablations, Google workloads) or none at all.
func NeedsCorpusData(id string) bool {
	switch id {
	case "table5", "fig-app-err", "fig-cluster-err", "fig-length-err", "all":
		return true
	}
	return false
}

// ComputeShard measures and predicts one shard of the corpus for one
// microarchitecture — the worker half of distributed evaluation. It runs
// the exact per-record pipeline computeArch runs (same profiling options,
// same model set, same record order), so the payload is byte-equivalent
// to what a local run would have journaled for that shard.
func (s *Suite) ComputeShard(archName string, si int) (*ShardPayload, error) {
	if s.cfg.TrainIthemal {
		return nil, fmt.Errorf("harness: ComputeShard: TrainIthemal runs are not distributable (the learned model needs the whole measured corpus)")
	}
	cpu, err := uarch.ByName(archName)
	if err != nil {
		return nil, err
	}
	n := len(s.recs)
	if si < 0 || si >= s.numShards(n) {
		return nil, fmt.Errorf("harness: ComputeShard: shard %d out of range (have %d)", si, s.numShards(n))
	}
	lo, hi := s.shardBounds(si, n)
	recs := s.recs[lo:hi]

	// The measure and predict steps of computeArch's two passes.
	meas := make([]measurement, hi-lo)
	s.measureInto([]lane{s.modelLane(cpu, profiler.DefaultOptions(), s.cfg.Metrics)}, recs, [][]measurement{meas})
	tp, status := journalMeas(meas)
	preds := models.All(cpu)
	out := make(map[string][]float64, len(preds))
	for _, m := range preds {
		out[m.Name()] = make([]float64, hi-lo)
	}
	ws := s.takePredictWorkers()
	defer s.putPredictWorkers(ws)
	s.predictRange(ws, cpu, preds, recs, out)
	return &ShardPayload{Arch: archName, Shard: si, Tp: tp, Status: status, Preds: out}, nil
}
