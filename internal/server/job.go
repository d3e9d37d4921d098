package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"bhive/internal/journal"
	"bhive/internal/profiler"
)

// Job states. A job interrupted by shutdown returns to stateQueued: its
// checkpoint journal is durable, and the next server over the same
// DataDir re-queues and resumes it.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// Job is one submitted evaluation: a normalized request bound to a job
// directory holding its checkpoint journal and (eventually) its result.
type Job struct {
	ID  string
	dir string
	req Request

	// metrics aggregates every profiling outcome of the job; the status
	// endpoint snapshots it concurrently with the run.
	metrics *profiler.Metrics

	mu       sync.Mutex
	state    string
	detail   string
	blocks   int
	progress []string
	// changed is closed (and replaced) on every progress append and state
	// transition; SSE streams block on it between events.
	changed  chan struct{}
	created  time.Time
	started  time.Time
	finished time.Time
}

func newJob(id, dir string, req Request) *Job {
	return &Job{
		ID:      id,
		dir:     dir,
		req:     req,
		metrics: new(profiler.Metrics),
		state:   stateQueued,
		changed: make(chan struct{}),
		created: time.Now(),
	}
}

func (j *Job) resultPath() string { return filepath.Join(j.dir, "result.json") }

// persistRequest writes the normalized request as the job's durable
// identity; a restarted server rebuilds the job from exactly these bytes.
func (j *Job) persistRequest() error {
	raw, err := json.MarshalIndent(j.req, "", "  ")
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return journal.WriteFileAtomic(filepath.Join(j.dir, "request.json"), append(raw, '\n'))
}

// signal wakes every waiter. Callers must hold j.mu.
func (j *Job) signal() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *Job) setState(state, detail string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.detail = detail
	switch state {
	case stateRunning:
		j.started = time.Now()
	case stateDone, stateFailed:
		j.finished = time.Now()
	}
	j.signal()
}

func (j *Job) setBlocks(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.blocks = n
}

// finishedAt returns when the job reached a terminal state (zero if it
// hasn't). For jobs restored by scanJobs the restore path backfills it
// from the result/error file mtime, so TTL expiry survives restarts
// instead of resetting on each one.
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

func (j *Job) setFinished(t time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = t
}

// State returns the current state and its human-readable detail.
func (j *Job) State() (state, detail string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.detail
}

// appendProgress records one progress line and wakes the SSE streams.
func (j *Job) appendProgress(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = append(j.progress, line)
	j.signal()
}

// progressFrom returns the progress lines at index n and beyond, the
// current state, and a channel that is closed on the next change — the
// SSE poll/wait primitive.
func (j *Job) progressFrom(n int) (lines []string, state string, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < len(j.progress) {
		lines = append(lines, j.progress[n:]...)
	}
	return lines, j.state, j.changed
}

// JobStatus is the /v1/jobs/{id} payload.
type JobStatus struct {
	ID            string         `json:"id"`
	State         string         `json:"state"`
	Detail        string         `json:"detail,omitempty"`
	Experiments   []string       `json:"experiments"`
	Blocks        int            `json:"blocks,omitempty"`
	ProgressLines int            `json:"progress_lines"`
	Created       string         `json:"created"`
	Started       string         `json:"started,omitempty"`
	Finished      string         `json:"finished,omitempty"`
	Metrics       *MetricsStatus `json:"metrics,omitempty"`
}

// Status snapshots the job for the status endpoint. Safe to call while
// the job is running: counters come from the atomic metrics, everything
// else from under the job lock.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:            j.ID,
		State:         j.state,
		Detail:        j.detail,
		Experiments:   j.req.Experiments,
		Blocks:        j.blocks,
		ProgressLines: len(j.progress),
		Created:       j.created.UTC().Format(time.RFC3339),
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339)
	}
	j.mu.Unlock()
	st.Metrics = metricsStatus(j.metrics)
	return st
}

// progressWriter adapts a Job to the harness's io.Writer progress sink,
// splitting the stream into lines. Crosscheck-mismatch lines arrive from
// concurrent profiling workers, so writes are locked.
type progressWriter struct {
	j *Job

	mu  sync.Mutex
	buf []byte
}

func (w *progressWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.j.appendProgress(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
}
