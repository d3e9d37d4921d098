// Command bhive-worker is the worker half of distributed evaluation: it
// polls a bhive-serve coordinator (started with -dist) for shard-range
// leases, rebuilds the job's evaluation suite from the normalized
// request, verifies the run fingerprint matches (refusing to compute
// under corpus or version skew), computes each leased shard through the
// same pipeline a local run uses, and posts the results back. The
// coordinator journals them, so the merged result is byte-identical to a
// single-node run — and killing a worker mid-lease loses at most the
// shards it had not yet delivered (the lease expires and re-issues).
//
// Usage:
//
//	bhive-worker -coordinator http://localhost:8421
//	bhive-worker -coordinator http://host:8421 -token sekrit -name rack3-a
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bhive/internal/dist"
	"bhive/internal/harness"
	"bhive/internal/server"
)

func main() {
	code := 0
	if err := run(os.Args[1:], os.Stderr); err != nil {
		if err != flag.ErrHelp && err != context.Canceled {
			fmt.Fprintln(os.Stderr, "bhive-worker:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("bhive-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coord   = fs.String("coordinator", "http://localhost:8421", "coordinator base URL (bhive-serve -dist)")
		token   = fs.String("token", "", "bearer token for non-loopback coordinators")
		name    = fs.String("name", "", "worker name in leases and logs (default: host-pid)")
		workers = fs.Int("workers", 0, "profiling parallelism within a shard (0 = GOMAXPROCS)")
		poll    = fs.Duration("poll", time.Second, "idle sleep between no-work polls (jittered)")
		timeout = fs.Duration("request-timeout", 30*time.Second, "per-HTTP-call timeout")
		quiet   = fs.Bool("quiet", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var logger *log.Logger
	if !*quiet {
		logger = log.New(stderr, "bhive-worker ", log.LstdFlags)
	}
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator:    *coord,
		Token:          *token,
		Name:           *name,
		PollInterval:   *poll,
		RequestTimeout: *timeout,
		Log:            logger,
		BuildSuite: func(request []byte, shardSize int) (*harness.Suite, error) {
			cfg, err := server.WorkerHarnessConfig(request, shardSize)
			if err != nil {
				return nil, err
			}
			cfg.Workers = *workers
			return harness.New(cfg), nil
		},
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = w.Run(ctx)
	if logger != nil {
		logger.Printf("[%s] exiting after %d shards", *name, w.ShardsDone())
	}
	return err
}
