// Package dist is the distributed-evaluation layer behind bhive-serve's
// coordinator mode and cmd/bhive-worker: a coordinator splits a job's
// corpus into shard-range leases, hands them to workers over HTTP, and
// folds the returned per-shard payloads into the job's checkpoint
// journal — from which the final tables replay byte-identically to a
// single-node run (the journal is the merge point; see internal/harness).
//
// The package has two halves: the lease Manager (coordinator-side
// bookkeeping — granting, expiry, re-issue, backpressure) and the Worker
// engine (the pull loop a worker process runs). The HTTP endpoints
// themselves live in internal/server; the wire types here are shared by
// both sides.
//
// Protocol (all POST bodies and responses are JSON):
//
//	POST /v1/dist/lease        LeaseRequest -> Lease | 204 (no work) | 503 + Retry-After (saturated)
//	GET  /v1/dist/jobs/{id}    -> JobSpec (the normalized evaluation request + shard geometry)
//	POST /v1/dist/result       ShardResult -> ResultAck | 409 (unknown/finished job)
//
// Leases are issued against a job fingerprint (the same run identity that
// binds checkpoint journals), so a worker that builds a divergent corpus
// — version skew, wrong scale — detects the mismatch before computing
// anything. A lease expires at its deadline: the coordinator returns its
// unfinished shards to the pending pool and re-issues them to the next
// worker that asks. Late results for a re-issued shard are accepted
// idempotently (first write wins, duplicates acknowledged and dropped),
// so an expired-but-alive worker wastes at most one shard of work.
package dist

import (
	"encoding/json"
	"time"

	"bhive/internal/harness"
	"bhive/internal/stats"
)

// ShardRef names one unit of leased work: one shard of one
// microarchitecture's corpus pass.
type ShardRef struct {
	Arch  string `json:"arch"`
	Shard int    `json:"shard"`
}

// LeaseRequest is the body of POST /v1/dist/lease.
type LeaseRequest struct {
	// Worker is a self-chosen worker name, used for observability and
	// lease attribution (not authentication — that is the bearer token).
	Worker string `json:"worker"`
}

// Lease is one grant of work: a set of shards of one job, valid until
// Deadline. The worker fetches the job's spec (normalized request) once
// per job via GET /v1/dist/jobs/{id} and caches the built suite by
// fingerprint.
type Lease struct {
	ID          string     `json:"id"`
	JobID       string     `json:"job_id"`
	Fingerprint string     `json:"fingerprint"`
	Shards      []ShardRef `json:"shards"`
	Deadline    time.Time  `json:"deadline"`
}

// JobSpec is the worker-facing description of a distributed job: the
// exact normalized request the coordinator admitted (the worker rebuilds
// the identical corpus and harness configuration from it) plus the shard
// geometry and the run fingerprint to verify against.
type JobSpec struct {
	ID          string          `json:"id"`
	Fingerprint string          `json:"fingerprint"`
	ShardSize   int             `json:"shard_size"`
	Request     json.RawMessage `json:"request"`
}

// ShardResult is the body of POST /v1/dist/result: one computed shard's
// per-record data (the journal line the coordinator will write) plus the
// shard's partial per-model aggregates (merged coordinator-side for live
// status without re-walking records).
type ShardResult struct {
	LeaseID string   `json:"lease_id"`
	JobID   string   `json:"job_id"`
	Worker  string   `json:"worker"`
	Ref     ShardRef `json:"ref"`

	Tp     []float64                     `json:"tp"`
	Status []int                         `json:"status"`
	Preds  map[string][]harness.NaNFloat `json:"preds"`

	Overall map[string]stats.Running `json:"overall,omitempty"`
	Tau     map[string]*stats.TauAcc `json:"tau,omitempty"`
}

// ResultAck is the coordinator's response to a posted shard.
type ResultAck struct {
	// Accepted is false when the shard was already complete (a re-issued
	// lease raced the original worker) — the result was dropped, which is
	// fine: first write wins and both are byte-identical by construction.
	Accepted bool `json:"accepted"`
	// JobDone reports whether the job's fill is now complete, letting
	// workers log progress.
	JobDone bool `json:"job_done"`
}
