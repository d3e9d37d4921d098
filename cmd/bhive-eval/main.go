// Command bhive-eval regenerates the paper's tables and figures against
// the simulated machine. Each experiment id corresponds to one table or
// figure; see DESIGN.md for the index.
//
// Usage:
//
//	bhive-eval -exp table5 -scale 0.01
//	bhive-eval -exp case-study
//	bhive-eval -exp fig-cluster-err -uarch haswell
//	bhive-eval -exp all -scale 0.005 -ithemal
//	bhive-eval -exp table5 -scale 0.2 -checkpoint /tmp/run.ckpt -progress
//	bhive-eval -backend sim,perturbed -scale 0.01
//	bhive-eval -backend sim -record /tmp/sim.trace
//	bhive-eval -backend recorded:/tmp/sim.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"bhive/internal/backend"
	"bhive/internal/corpus"
	_ "bhive/internal/counter" // registers the counter:<source> backend scheme
	"bhive/internal/harness"
	"bhive/internal/memo"
	"bhive/internal/models"
	"bhive/internal/profiler"
)

func main() {
	code := 0
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "bhive-eval:", err)
		}
		code = 1
	}
	os.Exit(code)
}

// run is the whole command behind a single exit point: every cleanup —
// closing the checkpoint journal and the backends' traces, stopping the
// CPU profiler — is a defer, so it runs on the error paths too. The old
// fatal()/os.Exit(1) shape silently skipped all of them.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("bhive-eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment id: "+strings.Join(harness.AllNames(), ", ")+", or all")
		scale     = fs.Float64("scale", 0.01, "corpus scale (1.0 = the paper's 358,561 blocks)")
		seed      = fs.Int64("seed", 7, "seed")
		arch      = fs.String("uarch", "", "restrict per-µarch figures to one microarchitecture")
		trainIt   = fs.Bool("ithemal", false, "train and include the learned model (slow)")
		epochs    = fs.Int("ithemal-epochs", 12, "LSTM training epochs")
		corpusF   = fs.String("corpus", "", "load the corpus from a bhive-collect CSV instead of generating it")
		asmF      = fs.String("asm", "", "load the corpus from an assembly listing ('@ app [freq]' headers, Intel or AT&T instructions)")
		shardSize = fs.Int("shard-size", harness.DefaultShardSize, "corpus records per evaluation shard (the unit of checkpointing)")
		ckptF     = fs.String("checkpoint", "", "shard checkpoint journal (created if absent; an interrupted run or a rerun resumes from it)")
		fsyncN    = fs.Int("fsync-every", 1, "fsync the checkpoint once per N shards (group commit; a crash loses at most the last N-1 shards)")
		progress  = fs.Bool("progress", false, "print per-shard progress lines (blocks/s, rejects) to stderr")
		prescreen = fs.Bool("prescreen", false, "statically reject blocks before profiling (skips counted as prescreened=N)")
		crosschk  = fs.Bool("crosscheck", false, "validate dynamic reject statuses against static predictions (mismatches to -progress; any mismatch fails the run)")
		backends  = fs.String("backend", "", "comma-separated measurement backends to cross-validate (sim, perturbed, recorded:<path>); implies -exp xval")
		recordF   = fs.String("record", "", "record every measurement to a replayable trace at this path (requires exactly one -backend)")
		stopAfter = fs.Int("stop-after-shards", 0, "stop with an error after computing this many shards (chunked batch runs; resume via -checkpoint)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer pprof.StopCPUProfile()
	}

	cfg := harness.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.TrainIthemal = *trainIt
	cfg.IthemalEpochs = *epochs
	cfg.ShardSize = *shardSize
	cfg.CheckpointPath = *ckptF
	cfg.FsyncEvery = *fsyncN
	cfg.Prescreen = *prescreen
	cfg.Crosscheck = *crosschk
	cfg.StopAfterShards = *stopAfter
	// One metrics sink for the whole run, backends included, so each
	// progress line counts the functional passes its shard ran.
	cfg.Metrics = new(profiler.Metrics)
	if *progress {
		cfg.Progress = stderr
	}
	if *corpusF != "" && *asmF != "" {
		return errors.New("-corpus and -asm are mutually exclusive")
	}
	if *corpusF != "" {
		f, oerr := os.Open(*corpusF)
		if oerr != nil {
			return oerr
		}
		cfg.Records, err = corpus.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if *asmF != "" {
		f, oerr := os.Open(*asmF)
		if oerr != nil {
			return oerr
		}
		cfg.Records, err = corpus.ReadAsm(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	// Backend selection (cross-validation runs). Backends are built before
	// the suite, whose run fingerprint includes their identities.
	runExp := *exp
	if *backends != "" {
		bes, berr := backend.ParseList(*backends, backend.Options{Metrics: cfg.Metrics})
		if berr != nil {
			return berr
		}
		if *recordF != "" {
			if len(bes) != 1 {
				for _, be := range bes {
					be.Close()
				}
				return fmt.Errorf("-record needs exactly one -backend, got %d", len(bes))
			}
			rec, rerr := backend.NewRecorder(bes[0], *recordF)
			if rerr != nil {
				bes[0].Close()
				return rerr
			}
			bes = []backend.Backend{rec}
		}
		defer func() {
			for _, be := range bes {
				if cerr := be.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}()
		cfg.Backends = bes
		if runExp == "all" {
			runExp = harness.XValID
		}
	} else if *recordF != "" {
		return errors.New("-record requires -backend naming what to record")
	}

	s := harness.New(cfg)
	defer s.Close()

	// On SIGINT/SIGTERM, flush what a plain os.Exit would lose — the
	// checkpoint's group-commit tail and the CPU profile — then exit with
	// the conventional interrupted status.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer func() { signal.Stop(sig); close(done) }()
	go func() {
		select {
		case <-done:
		case got := <-sig:
			fmt.Fprintf(stderr, "bhive-eval: %v: flushing the checkpoint before exit\n", got)
			if *cpuProf != "" {
				pprof.StopCPUProfile()
			}
			s.Close()
			os.Exit(130)
		}
	}()

	out, err := s.Run(runExp, *arch)
	if err != nil {
		if errors.Is(err, harness.ErrInterrupted) {
			fmt.Fprintln(stderr, "bhive-eval: shard budget reached; re-run with the same -checkpoint to continue")
		}
		return err
	}
	fmt.Fprint(stdout, out)
	// Any static/dynamic mismatch fails the run, after the output and the
	// heap profile are written.
	var crossErr error
	if *crosschk {
		crossErr = crosscheckVerdict(s.CrosscheckMismatches(), stderr)
	}
	if *progress {
		m, sc := memo.Stats(), models.SchedStats()
		fmt.Fprintf(stderr, "bhive-eval: memo insts=%d prepared=%d shapes=%d misses=%d uncacheable=%d  "+
			"model scheduler in-order=%d occupancy-fallbacks=%d other-fallbacks=%d long-prologue-copies=%d\n",
			m.Insts, m.Prepared, m.Shapes, m.Misses, m.Uncacheable,
			sc.InOrder, sc.OccupancyFallbacks, sc.OtherFallbacks, sc.LongPrologue)
	}

	if *memProf != "" {
		f, cerr := os.Create(*memProf)
		if cerr != nil {
			return cerr
		}
		runtime.GC()
		werr := pprof.WriteHeapProfile(f)
		f.Close()
		if werr != nil {
			return werr
		}
	}
	return crossErr
}

// crosscheckVerdict is -crosscheck's outcome for a run with n
// static/dynamic mismatches: any mismatch fails the run, and a clean run
// says so on stderr.
func crosscheckVerdict(n uint64, stderr io.Writer) error {
	if n > 0 {
		return fmt.Errorf("crosscheck: %d static/dynamic mismatches", n)
	}
	fmt.Fprintln(stderr, "bhive-eval: crosscheck: 0 static/dynamic mismatches")
	return nil
}
