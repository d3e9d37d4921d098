package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testServer builds a Server without New's worker pool or disk scan, for
// tests that need to drive the internals deterministically.
func testServer(t *testing.T, queueCap int) *Server {
	t.Helper()
	dir := t.TempDir()
	s := &Server{
		cfg:        Config{DataDir: dir},
		jobsDir:    filepath.Join(dir, "jobs"),
		interrupt:  make(chan struct{}),
		queue:      make(chan *Job, queueCap),
		jobs:       make(map[string]*Job),
		collecting: make(map[string]bool),
	}
	if err := os.MkdirAll(s.jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkerInterruptPriority pins the shutdown-drain ordering: a worker
// waking up with both the interrupt closed and the queue non-empty must
// exit, never start the queued job. (A plain two-case select chooses
// randomly between ready cases, so the old code started a fresh job
// mid-SIGTERM about half the time; 60 iterations make a regression
// essentially certain to trip.)
func TestWorkerInterruptPriority(t *testing.T) {
	for i := 0; i < 60; i++ {
		s := testServer(t, 4)
		j := newJob("drain-test", filepath.Join(s.jobsDir, "drain-test"), Request{})
		s.queue <- j
		close(s.interrupt)

		s.wg.Add(1)
		done := make(chan struct{})
		go func() {
			s.worker()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit on a closed interrupt")
		}
		if state, _ := j.State(); state != stateQueued {
			t.Fatalf("iteration %d: draining worker started a queued job (state %s)", i, state)
		}
	}
}

// deadClientWriter is an SSE client that disconnects after the first
// successful write: every later write fails, as it does on a closed TCP
// connection.
type deadClientWriter struct {
	header http.Header
	writes int
}

func (w *deadClientWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *deadClientWriter) WriteHeader(int) {}

func (w *deadClientWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("write on closed connection")
	}
	return len(p), nil
}

func (w *deadClientWriter) Flush() {}

// TestEventsDeadClient pins the SSE write-error fix: when the client is
// gone, the events handler must return instead of parking on the job's
// change channel until the next state transition (which for a long job
// may be minutes away — a goroutine and its buffers leaked per dead
// client).
func TestEventsDeadClient(t *testing.T) {
	s := testServer(t, 4)
	j := newJob("sse-dead", filepath.Join(s.jobsDir, "sse-dead"), Request{})
	j.setState(stateRunning, "")
	for i := 0; i < 5; i++ {
		j.appendProgress(fmt.Sprintf("shard %d", i))
	}
	s.jobs[j.ID] = j

	done := make(chan struct{})
	go func() {
		w := &deadClientWriter{}
		req := httptest.NewRequest("GET", "/v1/jobs/"+j.ID+"/events", nil)
		s.Handler().ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("events handler kept running after the client write failed")
	}
}

// TestQueueFullAdmission pins the queue-full path: the 503 must carry
// Retry-After, and the just-persisted job directory must be cleaned up
// under the admission lock (so a concurrent resubmission can never have
// its fresh request.json torn down by this removal).
func TestQueueFullAdmission(t *testing.T) {
	s := testServer(t, 0) // zero-capacity queue: every admission overflows
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
		strings.NewReader(`{"experiments":["table5"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 503 without Retry-After")
	}
	entries, err := os.ReadDir(s.jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected job left %d entries in the jobs dir", len(entries))
	}
}

// TestAdmissionDefersDuringGC pins the admission/GC race fix: while a GC
// sweep is removing a job directory outside the lock, a resubmission of
// the same request must be deferred (503 + Retry-After), not allowed to
// persist a request.json into the directory being deleted.
func TestAdmissionDefersDuringGC(t *testing.T) {
	s := testServer(t, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var req Request
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	id, err := req.id()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.collecting[id] = true
	s.mu.Unlock()

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("admission during GC: status %d retry-after %q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Once the sweep finishes the same submission is admitted normally.
	s.mu.Lock()
	delete(s.collecting, id)
	s.mu.Unlock()
	sr := postJob(t, ts, `{}`)
	if sr.ID != id || sr.State != stateQueued {
		t.Fatalf("post-GC submission = %+v, want queued job %s", sr, id)
	}
}
