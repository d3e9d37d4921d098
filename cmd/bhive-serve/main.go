// Command bhive-serve runs the evaluation service: a long-running HTTP
// front end over the same sharded, checkpointed pipeline bhive-eval
// drives. Jobs are submitted as corpora of hex blocks (or generation
// requests), run through per-job fingerprint-bound checkpoint journals,
// and stream per-shard progress to clients over SSE. Killing the server mid-job loses nothing: the next start
// over the same -data directory resumes every unfinished job from its
// last completed shard and serves byte-identical results.
//
// Usage:
//
//	bhive-serve -addr :8421 -data /var/lib/bhive
//	bhive-serve -data ./serve-data -max-jobs 2
//
//	curl -s localhost:8421/v1/evaluate -d '{"experiments":["table5"],"scale":0.002}'
//	curl -s localhost:8421/v1/jobs/<id>
//	curl -sN localhost:8421/v1/jobs/<id>/events
//	curl -s localhost:8421/v1/jobs/<id>/result
//
// With -dist the server also acts as a distributed-evaluation
// coordinator: eligible jobs lease their corpus shards to bhive-worker
// processes over /v1/dist, and the merged result is byte-identical to a
// single-node run (worker payloads land in the job's checkpoint journal
// and replay through the normal pipeline).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "bhive/internal/counter" // registers the counter:<source> backend scheme
	"bhive/internal/server"
)

func main() {
	code := 0
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "bhive-serve:", err)
		}
		code = 1
	}
	os.Exit(code)
}

// run is the whole command behind a single exit point: a dead listener
// drains running jobs to a durable shard boundary exactly like SIGTERM.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bhive-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8421", "listen address")
		dataDir = fs.String("data", "bhive-serve-data", "job state directory (requests, checkpoints, results)")
		workers = fs.Int("workers", 0, "profiling workers per job (0 = GOMAXPROCS)")
		maxJobs = fs.Int("max-jobs", 1, "jobs running concurrently (queued jobs wait)")
		drain   = fs.Duration("drain-timeout", 5*time.Minute, "max wait for running jobs to reach a shard boundary on shutdown")
		fsyncN  = fs.Int("fsync-every", 1, "fsync job checkpoints once per N shards (group commit; a hard kill recomputes at most the last N-1 shards)")
		jobTTL  = fs.Duration("job-ttl", 0, "delete finished job directories this long after completion (0 = keep forever)")

		distOn    = fs.Bool("dist", false, "coordinator mode: lease corpus shards to bhive-worker processes over /v1/dist")
		distToken = fs.String("dist-token", "", "bearer token non-loopback workers must present (empty = /v1/dist is loopback-only)")
		leaseTTL  = fs.Duration("dist-lease-ttl", 0, "re-issue a worker's shards if unfinished after this long (0 = 2m)")
		leaseN    = fs.Int("dist-shards-per-lease", 0, "shards granted per lease (0 = 1)")
		inflight  = fs.Int("dist-max-inflight", 0, "max outstanding leases before 503 backpressure (0 = 64)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		DataDir:            *dataDir,
		Workers:            *workers,
		MaxJobs:            *maxJobs,
		FsyncEvery:         *fsyncN,
		JobTTL:             *jobTTL,
		Dist:               *distOn,
		DistToken:          *distToken,
		DistLeaseTTL:       *leaseTTL,
		DistShardsPerLease: *leaseN,
		DistMaxInflight:    *inflight,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "bhive-serve: listening on %s (data: %s)\n", *addr, *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errCh:
		// The listener died on its own (port clash, …): still drain jobs
		// so their shards are checkpointed before exit.
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if serr := srv.Shutdown(ctx); serr != nil {
			fmt.Fprintln(stderr, "bhive-serve: drain:", serr)
		}
		return err
	case got := <-sig:
		fmt.Fprintf(stdout, "bhive-serve: %v: draining jobs to a shard boundary\n", got)
	}

	// Drain order matters: stop the pipeline first (jobs checkpoint their
	// in-flight shard and return to the queue; SSE streams get a terminal
	// "interrupted" event), then close the listener so Shutdown isn't
	// stuck behind the long-lived event streams.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if serr := srv.Shutdown(ctx); serr != nil {
		fmt.Fprintln(stderr, "bhive-serve: drain:", serr)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer httpCancel()
	if serr := httpSrv.Shutdown(httpCtx); serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "bhive-serve:", serr)
	}
	fmt.Fprintln(stdout, "bhive-serve: drained; unfinished jobs resume on next start")
	return nil
}
