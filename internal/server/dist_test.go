package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bhive/internal/corpus"
	"bhive/internal/dist"
	"bhive/internal/harness"
	"bhive/internal/profiler"
)

// distTestBody is a table5 job over the deterministic test corpus, with
// a small shard size so the distributed run has plenty of leases.
func distTestBody(t *testing.T) string {
	t.Helper()
	return fmt.Sprintf(`{"experiments":["table5"],"corpus_csv":%s,"shard_size":32}`,
		strconv.Quote(testCorpusCSV(t)))
}

func distWorkerConfig(ts *httptest.Server, name string) dist.WorkerConfig {
	return dist.WorkerConfig{
		Coordinator:  ts.URL,
		Name:         name,
		PollInterval: 10 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		BuildSuite: func(request []byte, shardSize int) (*harness.Suite, error) {
			cfg, err := WorkerHarnessConfig(request, shardSize)
			if err != nil {
				return nil, err
			}
			return harness.New(cfg), nil
		},
	}
}

// TestDistributedGoldenByteIdentical is the tentpole end-to-end
// property: a coordinator plus two workers — one killed mid-lease —
// must produce result bytes identical to a single-node run, with every
// measurement done remotely and the dead worker's undelivered shards
// re-issued to the survivor rather than recomputed from scratch.
func TestDistributedGoldenByteIdentical(t *testing.T) {
	body := distTestBody(t)

	// Reference: single-node server, no distribution.
	refSrv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	refID := postJob(t, refTS, body).ID
	waitFor(t, refTS, refID, "single-node done", func(st JobStatus) bool { return st.State == stateDone })
	ref := getResult(t, refTS, refID)
	refDone := doneLines(t, refSrv, refID)
	refTS.Close()
	if err := refSrv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Distributed: coordinator with a short lease TTL (the killed
	// worker's lease must re-issue within the test) and two shards per
	// lease (so the kill strands a half-delivered lease).
	srv, err := New(Config{
		DataDir:            t.TempDir(),
		Dist:               true,
		DistLeaseTTL:       1500 * time.Millisecond,
		DistShardsPerLease: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := postJob(t, ts, body).ID
	if id != refID {
		t.Fatalf("content-derived ids diverged: %s vs %s", id, refID)
	}

	// Worker A delivers one shard, then dies mid-lease.
	wa, err := dist.NewWorker(distWorkerConfig(ts, "wa"))
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan struct{})
	go func() { defer close(aDone); wa.Run(ctxA) }()
	for deadline := time.Now().Add(2 * time.Minute); wa.ShardsDone() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker A never delivered a shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelA()
	<-aDone

	// Worker B finishes the job, including A's re-issued shards.
	wb, err := dist.NewWorker(distWorkerConfig(ts, "wb"))
	if err != nil {
		t.Fatal(err)
	}
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	go wb.Run(ctxB)

	st := waitFor(t, ts, id, "distributed done", func(st JobStatus) bool { return st.State == stateDone })
	got := getResult(t, ts, id)
	if !bytes.Equal(got, ref) {
		t.Fatalf("distributed result diverged from single-node run.\n--- distributed ---\n%s\n--- single-node ---\n%s", got, ref)
	}

	// The fill's summary is the replay's exact per-µarch done line, the
	// one a single-node run prints.
	if got := doneLines(t, srv, id); strings.Join(got, "\n") != strings.Join(refDone, "\n") || len(got) == 0 {
		t.Fatalf("distributed done lines %q, single-node %q", got, refDone)
	}

	// Every measurement happened on the workers: the coordinator only
	// journaled payloads and replayed them.
	if st.Metrics != nil && st.Metrics.Profiled != 0 {
		t.Fatalf("coordinator profiled %d blocks locally, want 0", st.Metrics.Profiled)
	}
	// The journal-backed resume did real work on both sides: A's
	// delivered shards were not recomputed by B.
	if wa.ShardsDone() == 0 || wb.ShardsDone() == 0 {
		t.Fatalf("work split wa=%d wb=%d", wa.ShardsDone(), wb.ShardsDone())
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDistFillResumesAcrossRestart: a coordinator interrupted mid-fill
// requeues the job; the restarted server re-leases only the shards the
// journal is still missing.
func TestDistFillInterruptRequeues(t *testing.T) {
	dataDir := t.TempDir()
	srv, err := New(Config{DataDir: dataDir, Dist: true, DistShardsPerLease: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	id := postJob(t, ts, distTestBody(t)).ID

	// One worker delivers a few shards, then the server drains while the
	// fill is still incomplete.
	w, err := dist.NewWorker(distWorkerConfig(ts, "w1"))
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	go w.Run(wctx)
	for deadline := time.Now().Add(2 * time.Minute); w.ShardsDone() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("no shards delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wcancel()
	ts.Close()

	st := jobStatus2(t, srv, id)
	if st.State != stateQueued {
		t.Fatalf("interrupted distributed job state %q, want queued", st.State)
	}

	// Restart over the same data dir: the fill resumes from the journal
	// and a fresh worker completes it.
	srv2, err := New(Config{DataDir: dataDir, Dist: true, DistShardsPerLease: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	w2, err := dist.NewWorker(distWorkerConfig(ts2, "w2"))
	if err != nil {
		t.Fatal(err)
	}
	w2ctx, w2cancel := context.WithCancel(context.Background())
	defer w2cancel()
	go w2.Run(w2ctx)
	waitFor(t, ts2, id, "resumed distributed done", func(st JobStatus) bool { return st.State == stateDone })
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// doneLines returns a job's "[arch] done: …" progress lines, checking
// that a distributed fill's completion line precedes them.
func doneLines(t *testing.T, s *Server, id string) []string {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	lines, _, _ := j.progressFrom(0)
	var done []string
	filled := -1
	for i, line := range lines {
		switch {
		case line == "dist: fill complete; replaying the journal":
			filled = i
		case strings.Contains(line, "] done: "):
			if s.dist != nil && filled < 0 {
				t.Fatalf("done line %q before the fill completed", line)
			}
			done = append(done, line)
		}
	}
	return done
}

// jobStatus2 reads status straight off the server (no HTTP listener).
func jobStatus2(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	return j.Status()
}

// TestDistAuth pins the bearer-token gate: loopback is always admitted,
// non-loopback needs the exact token, and a token-less coordinator is
// loopback-only.
func TestDistAuth(t *testing.T) {
	called := false
	handler := func(w http.ResponseWriter, r *http.Request) { called = true }
	run := func(s *Server, remote, auth string) (int, bool) {
		called = false
		r := httptest.NewRequest("POST", "/v1/dist/lease", nil)
		r.RemoteAddr = remote
		if auth != "" {
			r.Header.Set("Authorization", auth)
		}
		rw := httptest.NewRecorder()
		s.distAuth(handler)(rw, r)
		return rw.Code, called
	}

	noToken := &Server{cfg: Config{}}
	if code, ok := run(noToken, "127.0.0.1:9999", ""); !ok || code != http.StatusOK {
		t.Fatalf("loopback without token: %d, called=%v", code, ok)
	}
	if code, ok := run(noToken, "[::1]:9999", ""); !ok || code != http.StatusOK {
		t.Fatalf("v6 loopback without token: %d, called=%v", code, ok)
	}
	if code, ok := run(noToken, "10.1.2.3:9999", ""); ok || code != http.StatusForbidden {
		t.Fatalf("remote on token-less coordinator: %d, called=%v", code, ok)
	}

	withToken := &Server{cfg: Config{DistToken: "sekrit"}}
	if code, ok := run(withToken, "10.1.2.3:9999", "Bearer sekrit"); !ok || code != http.StatusOK {
		t.Fatalf("remote with good token: %d, called=%v", code, ok)
	}
	if code, ok := run(withToken, "10.1.2.3:9999", "Bearer wrong"); ok || code != http.StatusUnauthorized {
		t.Fatalf("remote with bad token: %d, called=%v", code, ok)
	}
	if code, ok := run(withToken, "10.1.2.3:9999", ""); ok || code != http.StatusUnauthorized {
		t.Fatalf("remote without token: %d, called=%v", code, ok)
	}
	if code, ok := run(withToken, "127.0.0.1:9999", ""); !ok || code != http.StatusOK {
		t.Fatalf("loopback bypasses token: %d, called=%v", code, ok)
	}
}

// TestDistEndpointsAbsentWhenDisabled: a non-coordinator server must not
// expose the worker protocol.
func TestDistEndpointsAbsentWhenDisabled(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/dist/lease", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dist endpoint on non-coordinator: %d", resp.StatusCode)
	}
}

// TestDistStatusEndpoint: the lease-table snapshot is served while a
// fill is waiting for workers.
func TestDistStatusEndpoint(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir(), Dist: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := postJob(t, ts, distTestBody(t)).ID

	// The job reaches the fill and parks waiting for leases.
	var snap dist.Status
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/dist/status")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Jobs == 1 && snap.Pending > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fill never registered: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Shutdown withdraws the waiting fill and requeues the job.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := jobStatus2(t, srv, id); st.State != stateQueued {
		t.Fatalf("state after shutdown %q, want queued", st.State)
	}
}

// TestDistRejectsMalformedShard: a worker payload the replay would not
// trust (a status outside profiler.Status, a model the fill did not ask
// for) fails the job through the sink-error path, and nothing of it is
// journaled. A valid shard posted first is journaled, so the journal
// check below is not vacuous.
func TestDistRejectsMalformedShard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*dist.ShardResult)
	}{
		{"status-out-of-range", func(r *dist.ShardResult) {
			for i := range r.Status {
				r.Status[i] = 99
			}
		}},
		{"extra-model", func(r *dist.ShardResult) {
			r.Preds["bogus"] = r.Preds["IACA"]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{DataDir: t.TempDir(), Dist: true, DistShardsPerLease: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Shutdown(context.Background())
			id := postJob(t, ts, distTestBody(t)).ID

			good := leaseShard(t, ts)
			var spec dist.JobSpec
			getJSON(t, ts, "/v1/dist/jobs/"+good.JobID, &spec)
			cfg, err := WorkerHarnessConfig(spec.Request, spec.ShardSize)
			if err != nil {
				t.Fatal(err)
			}
			suite := harness.New(cfg)
			if code := postShard(t, ts, computeResult(t, suite, good)); code != http.StatusOK {
				t.Fatalf("valid shard: status %d", code)
			}

			bad := leaseShard(t, ts)
			res := computeResult(t, suite, bad)
			tc.corrupt(res)
			if code := postShard(t, ts, res); code == http.StatusOK {
				t.Fatalf("malformed shard accepted")
			}
			st := jobStatus(t, ts, id)
			for deadline := time.Now().Add(time.Minute); st.State != stateFailed; st = jobStatus(t, ts, id) {
				if time.Now().After(deadline) {
					t.Fatalf("job state %q after a malformed shard, want failed", st.State)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if !strings.Contains(st.Detail, "sink") {
				t.Fatalf("job failed with %q, want the sink error", st.Detail)
			}

			srv.mu.Lock()
			path := filepath.Join(srv.jobs[id].dir, "checkpoint.jsonl")
			srv.mu.Unlock()
			ck, err := harness.OpenCheckpoint(path, spec.Fingerprint, spec.ShardSize)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.Close()
			goodRef, badRef := good.Shards[0], bad.Shards[0]
			if _, ok := ck.Shard(goodRef.Arch, goodRef.Shard); !ok {
				t.Fatalf("valid shard %v missing from the journal", goodRef)
			}
			if e, ok := ck.Shard(badRef.Arch, badRef.Shard); ok {
				t.Fatalf("malformed shard %v journaled: %+v", badRef, e)
			}
		})
	}
}

// leaseShard polls the coordinator until it grants a one-shard lease.
func leaseShard(t *testing.T, ts *httptest.Server) *dist.Lease {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Post(ts.URL+"/v1/dist/lease", "application/json", strings.NewReader(`{"worker":"test"}`))
		if err != nil {
			t.Fatal(err)
		}
		var l dist.Lease
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&l)
		}
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Shards) == 1 {
			return &l
		}
	}
	t.Fatal("no lease granted")
	return nil
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// computeResult computes a lease's shard the way a worker does.
func computeResult(t *testing.T, suite *harness.Suite, l *dist.Lease) *dist.ShardResult {
	t.Helper()
	ref := l.Shards[0]
	p, err := suite.ComputeShard(ref.Arch, ref.Shard)
	if err != nil {
		t.Fatal(err)
	}
	return &dist.ShardResult{
		LeaseID: l.ID, JobID: l.JobID, Worker: "test", Ref: ref,
		Tp: p.Tp, Status: p.Status, Preds: harness.ToNaNFloats(p.Preds),
	}
}

// postShard posts a shard result and returns the HTTP status.
func postShard(t *testing.T, ts *httptest.Server, res *dist.ShardResult) int {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/dist/result", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// testFill is a fill validating haswell shards of a small corpus, plus
// the JSON of one valid worker payload for its shard 0.
func testFill(t testing.TB) (*fillState, []string, []byte) {
	t.Helper()
	cfg := harness.DefaultConfig()
	cfg.Records = corpus.GenerateAll(0.002, 7)
	cfg.ShardSize = 8
	suite := harness.New(cfg)
	names, err := suite.ModelNames("haswell")
	if err != nil {
		t.Fatal(err)
	}
	p, err := suite.ComputeShard("haswell", 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(dist.ShardResult{
		LeaseID: "l-1", JobID: "job", Worker: "w", Ref: dist.ShardRef{Arch: "haswell", Shard: 0},
		Tp: p.Tp, Status: p.Status, Preds: harness.ToNaNFloats(p.Preds),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fillState{suite: suite, names: map[string][]string{"haswell": names}}, names, raw
}

// legacyPayload appends the per-shard aggregates older workers shipped.
func legacyPayload(valid []byte) []byte {
	return append(bytes.TrimSuffix(valid, []byte("}")),
		`,"overall":{"IACA":{"sum":1.5,"n":3}},"tau":{"IACA":{"a":[1,2],"b":[2,1]}}}`...)
}

// decodeShard decodes a result body the way the result handler does.
func decodeShard(raw []byte) (*dist.ShardResult, error) {
	var res dist.ShardResult
	return &res, json.NewDecoder(bytes.NewReader(raw)).Decode(&res)
}

// TestShardEntryValidation pins which payloads the fill journals: whole
// shards of the fill's µarchs with in-range statuses and exactly the
// expected models, including payloads that still carry the aggregates
// older workers sent.
func TestShardEntryValidation(t *testing.T) {
	fill, names, valid := testFill(t)
	for _, tc := range []struct {
		name   string
		edit   func(*dist.ShardResult)
		accept bool
	}{
		{"valid", func(*dist.ShardResult) {}, true},
		{"negative-status", func(r *dist.ShardResult) { r.Status[0] = -1 }, false},
		{"status-past-range", func(r *dist.ShardResult) { r.Status[1] = profiler.NumStatus }, false},
		{"short-tp", func(r *dist.ShardResult) { r.Tp = r.Tp[1:] }, false},
		{"short-status", func(r *dist.ShardResult) { r.Status = r.Status[1:] }, false},
		{"missing-model", func(r *dist.ShardResult) { delete(r.Preds, names[0]) }, false},
		{"short-model", func(r *dist.ShardResult) { r.Preds[names[1]] = r.Preds[names[1]][1:] }, false},
		{"extra-model", func(r *dist.ShardResult) { r.Preds["bogus"] = r.Preds[names[0]] }, false},
		{"other-arch", func(r *dist.ShardResult) { r.Ref.Arch = "skylake" }, false},
		{"negative-shard", func(r *dist.ShardResult) { r.Ref.Shard = -1 }, false},
		{"shard-past-range", func(r *dist.ShardResult) { r.Ref.Shard = fill.suite.NumCorpusShards() }, false},
		// The 740-record corpus leaves a 4-record last shard.
		{"last-shard-length", func(r *dist.ShardResult) { r.Ref.Shard = fill.suite.NumCorpusShards() - 1 }, false},
	} {
		res, err := decodeShard(valid)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(res)
		if _, err := fill.entry(res); (err == nil) != tc.accept {
			t.Errorf("%s: entry error %v, want accepted=%v", tc.name, err, tc.accept)
		}
	}

	res, err := decodeShard(legacyPayload(valid))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fill.entry(res); err != nil {
		t.Fatalf("payload with legacy aggregates rejected: %v", err)
	}
}

// FuzzShardResult: any result body decodes to an error or a payload, and
// a payload the fill accepts is a journal entry the replay trusts.
func FuzzShardResult(f *testing.F) {
	fill, names, valid := testFill(f)
	for _, seed := range [][]byte{valid, legacyPayload(valid)} {
		for i := 0; i <= len(seed); i++ {
			if i == len(seed) || i%37 == 0 {
				f.Add(seed[:i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		res, err := decodeShard(raw)
		if err != nil {
			return
		}
		e, err := fill.entry(res)
		if err != nil {
			return
		}
		lo, hi := fill.suite.ShardRange(res.Ref.Shard)
		if !harness.ShardComplete(e, names, hi-lo) {
			t.Fatalf("accepted shard %v fails ShardComplete", res.Ref)
		}
		if len(e.Tp) != hi-lo || len(e.Status) != hi-lo || len(e.Preds) != len(names) {
			t.Fatalf("accepted shard %v: %d throughputs, %d statuses, %d models for %d records",
				res.Ref, len(e.Tp), len(e.Status), len(e.Preds), hi-lo)
		}
		for _, st := range e.Status {
			if st < 0 || st >= profiler.NumStatus {
				t.Fatalf("accepted shard %v with status %d", res.Ref, st)
			}
		}
	})
}
