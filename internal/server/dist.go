package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"bhive/internal/dist"
	"bhive/internal/harness"
	"bhive/internal/uarch"
)

// This file is the coordinator half of distributed evaluation: the
// /v1/dist endpoints workers poll, and the fill step that runs inside a
// job before its experiments — missing shards are leased out, worker
// payloads land in the job's checkpoint journal, and the normal replay
// path then produces a result byte-identical to a single-node run. A job
// with no reachable workers still completes: the fill only engages when
// coordinator mode is on, and shards the journal already holds are never
// re-leased (so a coordinator restart — or a partially distributed
// earlier attempt — resumes instead of recomputing).

// handleDistLease grants work: 200 + lease, 204 when nothing is pending,
// 503 + Retry-After under backpressure.
func (s *Server) handleDistLease(w http.ResponseWriter, r *http.Request) {
	var req dist.LeaseRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Worker == "" {
		req.Worker = r.RemoteAddr
	}
	l, err := s.dist.Lease(req.Worker)
	switch {
	case errors.Is(err, dist.ErrNoWork):
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, dist.ErrSaturated):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "lease table saturated; retry")
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, l)
	}
}

// handleDistSpec serves the normalized request a worker rebuilds the
// suite from.
func (s *Server) handleDistSpec(w http.ResponseWriter, r *http.Request) {
	spec, err := s.dist.Spec(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "no such distributed job")
		return
	}
	writeJSON(w, http.StatusOK, spec)
}

// handleDistResult accepts one computed shard. 409 tells the worker the
// job is gone (finished, failed, or withdrawn) — drop the lease and move
// on.
func (s *Server) handleDistResult(w http.ResponseWriter, r *http.Request) {
	var res dist.ShardResult
	if err := readJSON(r, &res); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ack, err := s.dist.Complete(&res)
	switch {
	case errors.Is(err, dist.ErrUnknownJob):
		httpError(w, http.StatusConflict, "job is not being distributed")
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, ack)
	}
}

// handleDistStatus reports lease-table totals (smoke tests poll it).
func (s *Server) handleDistStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.dist.Snapshot())
}

func readJSON(r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxRequestBytes)).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// distAuth gates the worker endpoints: loopback peers are always
// admitted (single-machine setups need no secret); anything else must
// present the configured bearer token, and is refused outright when no
// token is configured — an un-tokened coordinator is loopback-only.
func (s *Server) distAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !isLoopback(r.RemoteAddr) {
			if s.cfg.DistToken == "" {
				httpError(w, http.StatusForbidden, "distributed endpoints are loopback-only (no worker token configured)")
				return
			}
			if r.Header.Get("Authorization") != "Bearer "+s.cfg.DistToken {
				httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
		}
		next(w, r)
	}
}

func isLoopback(remoteAddr string) bool {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// distEligible reports whether a job's corpus passes can be leased out.
// Learned-model training needs the whole measured corpus on one node,
// and backend cross-validation measures through job-scoped backends a
// remote worker doesn't have; both run locally.
func (s *Server) distEligible(j *Job) bool {
	if s.dist == nil || j.req.TrainIthemal || len(j.req.Backends) > 0 {
		return false
	}
	for _, exp := range j.req.Experiments {
		if harness.NeedsCorpusData(exp) {
			return true
		}
	}
	return false
}

// distFill journals the job's missing shards from worker results, then
// returns so the caller's RunStructured replays them. Interrupt (server
// drain) withdraws the job and surfaces harness.ErrInterrupted — the
// shards already journaled are durable, so the resumed job re-leases
// only what is still missing.
func (s *Server) distFill(j *Job, suite *harness.Suite, cfg harness.Config) error {
	fp := suite.Fingerprint()
	ck, err := harness.OpenCheckpoint(cfg.CheckpointPath, fp, suite.ShardSize())
	if err != nil {
		return err
	}
	ck.SetGroupCommit(s.cfg.FsyncEvery)

	// Scope: the requested microarchitecture, or all of them.
	var cpus []string
	if j.req.Uarch != "" {
		cpu, err := uarch.ByName(j.req.Uarch)
		if err != nil {
			ck.Close()
			return err
		}
		cpus = []string{cpu.Name}
	} else {
		for _, cpu := range uarch.All() {
			cpus = append(cpus, cpu.Name)
		}
	}

	// Missing = not journaled complete; everything else replays locally.
	names := map[string][]string{}
	var missing []dist.ShardRef
	for _, arch := range cpus {
		ns, err := suite.ModelNames(arch)
		if err != nil {
			ck.Close()
			return err
		}
		names[arch] = ns
		for si := 0; si < suite.NumCorpusShards(); si++ {
			lo, hi := suite.ShardRange(si)
			if e, ok := ck.Shard(arch, si); ok && harness.ShardComplete(e, ns, hi-lo) {
				continue
			}
			missing = append(missing, dist.ShardRef{Arch: arch, Shard: si})
		}
	}
	if len(missing) == 0 {
		return ck.Close()
	}

	reqRaw, err := json.Marshal(j.req)
	if err != nil {
		ck.Close()
		return fmt.Errorf("server: %w", err)
	}

	fill := &fillState{ck: ck, suite: suite, names: names, total: len(missing), j: j}
	done, err := s.dist.AddJob(dist.JobSpec{
		ID:          j.ID,
		Fingerprint: fp,
		ShardSize:   suite.ShardSize(),
		Request:     reqRaw,
	}, missing, fill.sink)
	if err != nil {
		ck.Close()
		return err
	}
	j.appendProgress(fmt.Sprintf("dist: leasing %d missing shards across %d microarchitecture(s)", len(missing), len(cpus)))

	select {
	case <-done:
		if err := s.dist.Err(j.ID); err != nil {
			fill.close()
			return err
		}
		j.appendProgress("dist: fill complete; replaying the journal")
		return fill.close()
	case <-s.interrupt:
		s.dist.RemoveJob(j.ID)
		s.dist.Err(j.ID) // consume the withdrawal error
		fill.close()
		return harness.ErrInterrupted
	}
}

// fillState is one distributed fill in flight: the journal handle and
// the validation context. The mutex serializes sink calls (the manager
// may deliver results concurrently) and fences Close against late
// writers.
type fillState struct {
	mu     sync.Mutex
	ck     *harness.Checkpoint
	suite  *harness.Suite
	names  map[string][]string
	filled int
	total  int
	j      *Job
	closed bool
}

// sink validates and journals one worker shard.
func (f *fillState) sink(res *dist.ShardResult) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("server: fill already closed")
	}
	e, err := f.entry(res)
	if err != nil {
		return err
	}
	arch, si := res.Ref.Arch, res.Ref.Shard
	if err := f.ck.PutMeas(arch, si, e.Tp, e.Status); err != nil {
		return err
	}
	if err := f.ck.PutPreds(arch, si, e.Preds); err != nil {
		return err
	}
	f.filled++
	f.j.appendProgress(fmt.Sprintf("dist: shard %s/%d from %s (%d/%d)", arch, si, res.Worker, f.filled, f.total))
	return nil
}

// entry turns a worker payload into the journal entry it fills, or
// rejects it. The check is harness.ShardComplete, the one the replay
// applies before trusting a shard, so nothing is journaled that the
// replay would then quietly recompute.
func (f *fillState) entry(res *dist.ShardResult) (harness.ShardEntry, error) {
	arch, si := res.Ref.Arch, res.Ref.Shard
	names, ok := f.names[arch]
	if !ok || si < 0 || si >= f.suite.NumCorpusShards() {
		return harness.ShardEntry{}, fmt.Errorf("server: shard %s/%d is not part of this fill", arch, si)
	}
	lo, hi := f.suite.ShardRange(si)
	e := harness.ShardEntry{
		MeasDone: true, Tp: res.Tp, Status: res.Status,
		PredDone: true, Preds: harness.FromNaNFloats(res.Preds),
	}
	if !harness.ShardComplete(e, names, hi-lo) {
		return harness.ShardEntry{}, fmt.Errorf("server: shard %s/%d payload is not a complete shard of %d records with statuses in range and models %v",
			arch, si, hi-lo, names)
	}
	return e, nil
}

// close flushes and closes the journal exactly once, fencing out any
// sink call still in flight.
func (f *fillState) close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return f.ck.Close()
}

// WorkerHarnessConfig rebuilds, from a coordinator job spec's normalized
// request, the harness configuration a distributed worker must evaluate
// under. The fields that feed the run fingerprint (seed, scale, corpus,
// model options) come straight from the request, so the worker's suite
// fingerprints identically to the coordinator's; execution-only knobs
// (parallelism, a local profile cache) are the caller's to set on the
// returned config.
func WorkerHarnessConfig(raw []byte, shardSize int) (harness.Config, error) {
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return harness.Config{}, fmt.Errorf("server: job spec request: %w", err)
	}
	if err := req.normalize(); err != nil {
		return harness.Config{}, fmt.Errorf("server: job spec request: %w", err)
	}
	cfg, err := req.harnessConfig()
	if err != nil {
		return harness.Config{}, err
	}
	if shardSize > 0 {
		cfg.ShardSize = shardSize
	}
	return cfg, nil
}
