package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bhive/internal/harness"
)

// WorkerConfig configures the worker pull loop. Coordinator and
// BuildSuite are required; everything else defaults sensibly.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. http://host:8707.
	Coordinator string
	// Token is the bearer token sent on every request ("" for
	// localhost-only coordinators that run without auth).
	Token string
	// Name identifies this worker in leases and logs.
	Name string
	// BuildSuite constructs the evaluation suite from a job's normalized
	// request JSON and shard size. It must produce the same corpus and
	// configuration the coordinator built — verified via the fingerprint
	// before any shard is computed.
	BuildSuite func(request []byte, shardSize int) (*harness.Suite, error)

	// PollInterval is the idle sleep between no-work polls (default 1s;
	// jittered so a worker fleet doesn't poll in lockstep).
	PollInterval time.Duration
	// RequestTimeout bounds each HTTP call (default 30s).
	RequestTimeout time.Duration
	// MaxRetries is how many times a transient HTTP failure is retried
	// with exponential backoff before the lease is abandoned (default 4;
	// an abandoned lease re-issues at its deadline, so giving up is safe).
	MaxRetries int
	// BackoffBase is the first retry delay (default 200ms, doubling per
	// attempt with jitter, capped at 5s).
	BackoffBase time.Duration
	// Log receives progress lines; nil discards them.
	Log *log.Logger
}

func (c *WorkerConfig) applyDefaults() error {
	if c.Coordinator == "" {
		return errors.New("dist: worker: Coordinator URL required")
	}
	if c.BuildSuite == nil {
		return errors.New("dist: worker: BuildSuite required")
	}
	if c.Name == "" {
		c.Name = "worker"
	}
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	return nil
}

// Worker is the pull loop a worker process runs: lease, build (or reuse)
// the suite, compute each leased shard, post results — until the context
// ends. Transient coordinator failures back off and retry; a lease that
// cannot be delivered is abandoned to expiry.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	suites map[string]*harness.Suite // job id -> verified suite

	shardsDone atomic.Uint64
}

// NewWorker validates the config and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Worker{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.RequestTimeout},
		suites: map[string]*harness.Suite{},
	}, nil
}

// ShardsDone reports how many shards this worker has successfully
// delivered (tests and status lines).
func (w *Worker) ShardsDone() uint64 { return w.shardsDone.Load() }

// Run polls for leases until ctx is done. It only returns ctx.Err():
// every other failure is logged and retried — a worker fleet should
// survive coordinator restarts.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, wait, err := w.lease(ctx)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("lease: %v", err)
			w.sleep(ctx, w.cfg.PollInterval)
			continue
		case lease == nil:
			// No work (or saturated with a Retry-After hint).
			if wait <= 0 {
				wait = w.cfg.PollInterval
			}
			w.sleep(ctx, wait)
			continue
		}
		w.serve(ctx, lease)
	}
}

// serve computes and delivers one lease's shards.
func (w *Worker) serve(ctx context.Context, lease *Lease) {
	suite, err := w.suiteFor(ctx, lease)
	if err != nil {
		w.logf("lease %s: suite: %v", lease.ID, err)
		w.sleep(ctx, w.cfg.PollInterval)
		return
	}
	for _, ref := range lease.Shards {
		if ctx.Err() != nil {
			return
		}
		if !time.Now().Before(lease.Deadline) {
			// Expired under us: the coordinator has (or will) re-issue
			// the rest; computing them would be wasted work.
			w.logf("lease %s expired locally; abandoning %s/%d onward", lease.ID, ref.Arch, ref.Shard)
			return
		}
		p, err := suite.ComputeShard(ref.Arch, ref.Shard)
		if err != nil {
			w.logf("lease %s: compute %s/%d: %v", lease.ID, ref.Arch, ref.Shard, err)
			return
		}
		res := &ShardResult{
			LeaseID: lease.ID,
			JobID:   lease.JobID,
			Worker:  w.cfg.Name,
			Ref:     ref,
			Tp:      p.Tp,
			Status:  p.Status,
			Preds:   harness.ToNaNFloats(p.Preds),
			Overall: p.Overall,
			Tau:     p.Tau,
		}
		ack, err := w.postResult(ctx, res)
		if err != nil {
			if errors.Is(err, ErrUnknownJob) {
				w.logf("lease %s: job %s gone; dropping lease", lease.ID, lease.JobID)
				delete(w.suites, lease.JobID)
			} else {
				w.logf("lease %s: deliver %s/%d: %v (abandoning to expiry)", lease.ID, ref.Arch, ref.Shard, err)
			}
			return
		}
		w.shardsDone.Add(1)
		if !ack.Accepted {
			w.logf("shard %s/%d was already filled (re-issued lease raced); continuing", ref.Arch, ref.Shard)
		}
		if ack.JobDone {
			w.logf("job %s complete", lease.JobID)
			delete(w.suites, lease.JobID)
		}
	}
}

// suiteFor returns the verified suite for a lease's job, fetching the
// spec and building it on first use.
func (w *Worker) suiteFor(ctx context.Context, lease *Lease) (*harness.Suite, error) {
	if s, ok := w.suites[lease.JobID]; ok {
		return s, nil
	}
	var spec JobSpec
	status, _, err := w.do(ctx, http.MethodGet, "/v1/dist/jobs/"+lease.JobID, nil, &spec)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, ErrUnknownJob
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("spec fetch: HTTP %d", status)
	}
	s, err := w.cfg.BuildSuite(spec.Request, spec.ShardSize)
	if err != nil {
		return nil, fmt.Errorf("building suite: %w", err)
	}
	if got := s.Fingerprint(); got != lease.Fingerprint {
		return nil, fmt.Errorf("fingerprint mismatch: built %s, lease wants %s (corpus or version skew — refusing to compute)", got, lease.Fingerprint)
	}
	w.suites[lease.JobID] = s
	w.logf("job %s: suite built and verified (%d shards/arch)", lease.JobID, s.NumCorpusShards())
	return s, nil
}

// lease asks for work. Returns (nil, wait, nil) when there is none —
// wait carries the coordinator's Retry-After hint if it sent one.
func (w *Worker) lease(ctx context.Context) (*Lease, time.Duration, error) {
	var l Lease
	status, retryAfter, err := w.do(ctx, http.MethodPost, "/v1/dist/lease", LeaseRequest{Worker: w.cfg.Name}, &l)
	if err != nil {
		return nil, 0, err
	}
	switch status {
	case http.StatusOK:
		return &l, 0, nil
	case http.StatusNoContent:
		return nil, 0, nil
	case http.StatusServiceUnavailable:
		return nil, retryAfter, nil
	default:
		return nil, 0, fmt.Errorf("lease: HTTP %d", status)
	}
}

// postResult delivers one shard, retrying transient failures.
func (w *Worker) postResult(ctx context.Context, res *ShardResult) (ResultAck, error) {
	var ack ResultAck
	status, _, err := w.do(ctx, http.MethodPost, "/v1/dist/result", res, &ack)
	if err != nil {
		return ResultAck{}, err
	}
	switch status {
	case http.StatusOK:
		return ack, nil
	case http.StatusConflict, http.StatusNotFound:
		return ResultAck{}, ErrUnknownJob
	default:
		return ResultAck{}, fmt.Errorf("result: HTTP %d", status)
	}
}

// do issues one JSON request with auth, per-call timeout, and jittered
// exponential backoff on transient failures (network errors and 5xx
// other than 503-backpressure). Non-2xx statuses that carry protocol
// meaning (204, 404, 409, 503) are returned to the caller, not retried.
func (w *Worker) do(ctx context.Context, method, path string, in, out any) (status int, retryAfter time.Duration, err error) {
	var body []byte
	if in != nil {
		if body, err = json.Marshal(in); err != nil {
			return 0, 0, err
		}
	}
	for attempt := 0; ; attempt++ {
		status, retryAfter, err = w.once(ctx, method, path, body, out)
		transient := err != nil || status >= 500 && status != http.StatusServiceUnavailable
		if !transient || attempt >= w.cfg.MaxRetries {
			return status, retryAfter, err
		}
		d := w.backoff(attempt)
		w.logf("%s %s failed (attempt %d: status=%d err=%v); retrying in %v", method, path, attempt+1, status, err, d.Round(time.Millisecond))
		if !w.sleep(ctx, d) {
			return 0, 0, ctx.Err()
		}
	}
}

// once is a single HTTP round trip.
func (w *Worker) once(ctx context.Context, method, path string, body []byte, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.cfg.Coordinator+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.Token)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var retryAfter time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if d, ok := parseRetryAfter(s, time.Now()); ok {
			retryAfter = d
		}
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, retryAfter, fmt.Errorf("decoding %s response: %w", path, err)
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	}
	return resp.StatusCode, retryAfter, nil
}

const (
	// retryAfterFloor is the delay a zero (or already-elapsed HTTP-date)
	// Retry-After maps to: the coordinator asked for an immediate retry,
	// and "immediate but polite" is a short positive sleep — not the full
	// poll interval the no-hint path falls back to, and not a hot loop.
	retryAfterFloor = 25 * time.Millisecond
	// retryAfterCeiling caps any hint: a buggy or hostile coordinator
	// must not be able to park the worker fleet for hours.
	retryAfterCeiling = 5 * time.Minute
)

// parseRetryAfter interprets a Retry-After header value, which RFC 9110
// allows in two forms: a non-negative integer of seconds, or an
// HTTP-date. Reports ok=false for malformed values (the caller then
// treats the header as absent). Valid hints clamp into
// [retryAfterFloor, retryAfterCeiling], so "0" — immediate-but-polite —
// survives as a short positive delay instead of being dropped.
func parseRetryAfter(s string, now time.Time) (time.Duration, bool) {
	var d time.Duration
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0, false
		}
		d = time.Duration(secs) * time.Second
	} else if when, err := http.ParseTime(s); err == nil {
		d = when.Sub(now) // past dates clamp up to the floor below
	} else {
		return 0, false
	}
	if d < retryAfterFloor {
		d = retryAfterFloor
	}
	if d > retryAfterCeiling {
		d = retryAfterCeiling
	}
	return d, true
}

// backoff returns the delay before retry `attempt` (0-based):
// exponential from BackoffBase, capped at 5s, with equal jitter so
// synchronized workers fan out.
func (w *Worker) backoff(attempt int) time.Duration {
	d := w.cfg.BackoffBase << uint(attempt)
	if max := 5 * time.Second; d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleep waits d or until ctx is done; reports whether the full wait
// elapsed. The duration gets ±25% jitter so a fleet of workers with the
// same poll interval doesn't stampede the coordinator in lockstep.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	j := int64(d / 4)
	d += time.Duration(rand.Int63n(2*j+1) - j)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Printf("[%s] %s", w.cfg.Name, fmt.Sprintf(format, args...))
	}
}
