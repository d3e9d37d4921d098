package dist

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bhive/internal/harness"
)

func testWorkerConfig(t *testing.T, url string, build func([]byte, int) (*harness.Suite, error)) WorkerConfig {
	t.Helper()
	return WorkerConfig{
		Coordinator:    url,
		Name:           "tw",
		BuildSuite:     build,
		PollInterval:   5 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		BackoffBase:    time.Millisecond,
	}
}

func nopBuild([]byte, int) (*harness.Suite, error) {
	return harness.New(harness.DefaultConfig()), nil
}

// TestWorkerLoopAgainstStubCoordinator drives the whole worker pull loop
// against a scripted coordinator: one lease for one real shard, then no
// work. The posted result must carry the complete shard payload with the
// bearer token on every request.
func TestWorkerLoopAgainstStubCoordinator(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.002
	cfg.ShardSize = 64
	suite := harness.New(cfg)
	fp := suite.Fingerprint()
	lo, hi := suite.ShardRange(0)
	names, err := suite.ModelNames("haswell")
	if err != nil {
		t.Fatal(err)
	}

	var leased atomic.Bool
	resultCh := make(chan *ShardResult, 1)
	mux := http.NewServeMux()
	auth := func(r *http.Request) bool { return r.Header.Get("Authorization") == "Bearer sekrit" }
	mux.HandleFunc("POST /v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		if !auth(r) {
			t.Error("lease without bearer token")
		}
		if leased.Swap(true) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		json.NewEncoder(w).Encode(Lease{
			ID: "l-1", JobID: "job1", Fingerprint: fp,
			Shards:   []ShardRef{{Arch: "haswell", Shard: 0}},
			Deadline: time.Now().Add(time.Minute),
		})
	})
	mux.HandleFunc("GET /v1/dist/jobs/job1", func(w http.ResponseWriter, r *http.Request) {
		if !auth(r) {
			t.Error("spec fetch without bearer token")
		}
		json.NewEncoder(w).Encode(JobSpec{ID: "job1", Fingerprint: fp, ShardSize: cfg.ShardSize, Request: json.RawMessage(`{}`)})
	})
	mux.HandleFunc("POST /v1/dist/result", func(w http.ResponseWriter, r *http.Request) {
		var res ShardResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			t.Errorf("decoding result: %v", err)
		}
		select {
		case resultCh <- &res:
		default:
		}
		json.NewEncoder(w).Encode(ResultAck{Accepted: true, JobDone: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	wcfg := testWorkerConfig(t, srv.URL, func(req []byte, shardSize int) (*harness.Suite, error) {
		c := cfg
		c.ShardSize = shardSize
		return harness.New(c), nil
	})
	wcfg.Token = "sekrit"
	w, err := NewWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ret := make(chan error, 1)
	go func() { ret <- w.Run(ctx) }()

	var res *ShardResult
	select {
	case res = <-resultCh:
	case <-time.After(60 * time.Second):
		t.Fatal("no result posted")
	}
	// Wait for the worker to finish its round trip before cancelling —
	// cancelling now would abort its in-flight response read.
	for deadline := time.Now().Add(10 * time.Second); w.ShardsDone() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("shard never acknowledged")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-ret; err != context.Canceled {
		t.Fatalf("Run returned %v", err)
	}

	if res.JobID != "job1" || res.LeaseID != "l-1" || res.Worker != "tw" {
		t.Fatalf("result identity: %+v", res)
	}
	if len(res.Tp) != hi-lo || len(res.Status) != hi-lo {
		t.Fatalf("result covers %d records, want %d", len(res.Tp), hi-lo)
	}
	for _, name := range names {
		if len(res.Preds[name]) != hi-lo {
			t.Fatalf("missing predictions for %s", name)
		}
	}
	// The posted journal line is the shard a local run computes, bit for
	// bit (NaN = the model failed on that record).
	want, err := suite.ComputeShard("haswell", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Tp {
		if res.Tp[i] != want.Tp[i] || res.Status[i] != want.Status[i] {
			t.Fatalf("record %d: posted (%v, %d), local (%v, %d)", i, res.Tp[i], res.Status[i], want.Tp[i], want.Status[i])
		}
		for _, name := range names {
			got, exp := float64(res.Preds[name][i]), want.Preds[name][i]
			if got != exp && !(math.IsNaN(got) && math.IsNaN(exp)) {
				t.Fatalf("record %d %s: posted %v, local %v", i, name, got, exp)
			}
		}
	}
	if w.ShardsDone() != 1 {
		t.Fatalf("ShardsDone=%d", w.ShardsDone())
	}
}

// TestWorkerRefusesFingerprintMismatch: a worker whose rebuilt suite
// fingerprints differently from the lease must not compute or post
// anything.
func TestWorkerRefusesFingerprintMismatch(t *testing.T) {
	var posted atomic.Bool
	leases := make(chan struct{}, 16)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		select {
		case leases <- struct{}{}:
		default:
		}
		json.NewEncoder(w).Encode(Lease{
			ID: "l-1", JobID: "job1", Fingerprint: "not-the-real-fingerprint",
			Shards:   []ShardRef{{Arch: "haswell", Shard: 0}},
			Deadline: time.Now().Add(time.Minute),
		})
	})
	mux.HandleFunc("GET /v1/dist/jobs/job1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(JobSpec{ID: "job1", ShardSize: 64, Request: json.RawMessage(`{}`)})
	})
	mux.HandleFunc("POST /v1/dist/result", func(w http.ResponseWriter, r *http.Request) {
		posted.Store(true)
		json.NewEncoder(w).Encode(ResultAck{Accepted: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cfg := harness.DefaultConfig()
	cfg.Scale = 0.002
	w, err := NewWorker(testWorkerConfig(t, srv.URL, func([]byte, int) (*harness.Suite, error) {
		return harness.New(cfg), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	// Let the worker chew through a few lease cycles, then verify it
	// never posted a result for the mismatched job.
	for i := 0; i < 3; i++ {
		select {
		case <-leases:
		case <-time.After(10 * time.Second):
			t.Fatal("worker stopped polling")
		}
	}
	cancel()
	if posted.Load() {
		t.Fatal("worker posted a result despite fingerprint mismatch")
	}
}

// TestWorkerRetriesTransientFailures: 5xx responses retry with backoff
// until success; protocol statuses (204, 503+Retry-After) do not retry.
func TestWorkerRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2:
			http.Error(w, "transient", http.StatusBadGateway)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := NewWorker(testWorkerConfig(t, srv.URL, nopBuild))
	if err != nil {
		t.Fatal(err)
	}
	l, wait, err := w.lease(context.Background())
	if err != nil || l != nil || wait != 0 {
		t.Fatalf("lease after retries: %+v wait=%v err=%v", l, wait, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 502s then 204)", n)
	}
}

func TestWorkerHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := NewWorker(testWorkerConfig(t, srv.URL, nopBuild))
	if err != nil {
		t.Fatal(err)
	}
	l, wait, err := w.lease(context.Background())
	if err != nil || l != nil {
		t.Fatalf("saturated lease: %+v, %v", l, err)
	}
	if wait != 7*time.Second {
		t.Fatalf("Retry-After hint %v, want 7s", wait)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("503 must not retry inside do(): %d calls", n)
	}
}

// TestWorkerRetryAfterZero: "Retry-After: 0" is a protocol-legal hint
// meaning retry immediately (but politely). It used to be dropped as "no
// hint", sending the worker down the full poll-interval path; now it
// surfaces as the short positive floor delay.
func TestWorkerRetryAfterZero(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := NewWorker(testWorkerConfig(t, srv.URL, nopBuild))
	if err != nil {
		t.Fatal(err)
	}
	l, wait, err := w.lease(context.Background())
	if err != nil || l != nil {
		t.Fatalf("saturated lease: %+v, %v", l, err)
	}
	if wait != retryAfterFloor {
		t.Fatalf("Retry-After: 0 hint = %v, want the polite floor %v", wait, retryAfterFloor)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"7", 7 * time.Second, true},
		{"0", retryAfterFloor, true},       // immediate-but-polite
		{"86400", retryAfterCeiling, true}, // ceiling clamp
		{"-3", 0, false},                   // negative seconds are malformed
		{"soon", 0, false},                 // garbage
		{"", 0, false},                     // empty
		{"1.5", 0, false},                  // fractional seconds are not in the grammar
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second, true}, // HTTP-date
		{now.Add(-time.Hour).Format(http.TimeFormat), retryAfterFloor, true},        // past date → immediate
		{now.Add(24 * time.Hour).Format(http.TimeFormat), retryAfterCeiling, true},  // far future → ceiling
	}
	for _, c := range cases {
		got, ok := parseRetryAfter(c.in, now)
		if ok != c.ok || got != c.want {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestWorkerBackoffBounds(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Coordinator: "http://x", BuildSuite: nopBuild, BackoffBase: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 20; attempt++ {
		for i := 0; i < 50; i++ {
			d := w.backoff(attempt)
			base := 100 * time.Millisecond << uint(attempt)
			if base <= 0 || base > 5*time.Second {
				base = 5 * time.Second
			}
			if d < base/2 || d > base {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base/2, base)
			}
		}
	}
}

func TestWorkerConfigValidation(t *testing.T) {
	if _, err := NewWorker(WorkerConfig{BuildSuite: nopBuild}); err == nil {
		t.Fatal("missing coordinator accepted")
	}
	if _, err := NewWorker(WorkerConfig{Coordinator: "http://x"}); err == nil {
		t.Fatal("missing BuildSuite accepted")
	}
}
