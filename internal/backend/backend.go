// Package backend abstracts "measure one basic block on one
// microarchitecture" behind a pluggable interface, so the harness can
// cross-validate ground truths against each other the way the paper
// cross-validates models against one hardware truth (Tables V/VI).
//
// Three implementations ship:
//
//   - SimBackend wraps the cycle-level simulator (internal/profiler)
//     unchanged — the repo's default ground truth.
//   - PerturbedSimBackend runs the same simulator under a second
//     parameterization of each microarchitecture (uarch.CPU.Perturbed),
//     standing in for a differently-calibrated machine.
//   - RecordedBackend records every measurement another backend produces
//     to a content-addressed JSONL trace and replays it deterministically
//     — a hermetic fixture source for fast tests.
//
// Backends are selected by spec strings ("sim", "perturbed",
// "recorded:<path>") parsed by Parse/ParseList, the grammar shared by
// bhive-eval's -backend flag and bhive-serve's request field. Further
// backend families register spec schemes via RegisterScheme — the
// hardware-counter backend (internal/counter) adds "counter[:<source>]"
// when linked into a binary.
package backend

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"bhive/internal/pipeline"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Measurement is one block's outcome on one microarchitecture under one
// backend — the profiler.Result fields every ground truth must supply.
type Measurement struct {
	Status     profiler.Status
	Throughput float64 // cycles per iteration at steady state (0 unless StatusOK)
	Counters   pipeline.Counters
	Err        error // the fault for StatusCrashed/StatusUnsupported (not serialized)
}

// Backend measures basic blocks on microarchitectures. Implementations
// must be safe for concurrent Measure calls — the harness drives one
// backend from its whole worker pool.
type Backend interface {
	// Name is the short stable identifier used in reports, checkpoint
	// shard keys and trace headers ("sim", "perturbed", ...).
	Name() string
	// Fingerprint captures the measurement semantics (options, CPU
	// parameterization, trace identity); it feeds the run fingerprint so
	// checkpoints written under one backend set never resume another.
	Fingerprint() string
	// Measure profiles one block on one microarchitecture.
	Measure(b *x86.Block, cpu *uarch.CPU) Measurement
	// Close flushes any backing store (traces); measuring after Close is
	// undefined.
	Close() error
}

// Options carries the shared infrastructure backends plug into.
type Options struct {
	// Profiler parameterizes simulator-backed backends; zero value means
	// profiler.DefaultOptions().
	Profiler *profiler.Options
	// Metrics, when non-nil, receives every profiling outcome.
	Metrics *profiler.Metrics
}

func (o Options) profilerOptions() profiler.Options {
	if o.Profiler != nil {
		return *o.Profiler
	}
	return profiler.DefaultOptions()
}

// Scheme extends the spec grammar with an externally implemented backend
// family (e.g. the hardware-counter backend in internal/counter, which
// cannot live here without an import cycle). Check validates a spec
// argument without side effects; Open builds the backend.
type Scheme struct {
	// Check validates the spec argument (the part after "scheme:", ""
	// when the spec is the bare scheme name) without touching the
	// filesystem or any hardware.
	Check func(arg string) error
	// Open builds the backend for the argument.
	Open func(arg string, opts Options) (Backend, error)
}

var (
	schemeMu sync.RWMutex
	schemes  = map[string]Scheme{}
)

// RegisterScheme adds a spec scheme to the grammar shared by CheckSpec
// and Parse. It is meant to be called from package init functions
// (internal/counter registers "counter"); registering a built-in or
// already-registered name panics — that is a programming error, not a
// runtime condition.
func RegisterScheme(name string, s Scheme) {
	schemeMu.Lock()
	defer schemeMu.Unlock()
	if name == "sim" || name == "perturbed" || name == "recorded" {
		panic("backend: RegisterScheme: " + name + " is built in")
	}
	if _, dup := schemes[name]; dup {
		panic("backend: RegisterScheme: duplicate scheme " + name)
	}
	if s.Check == nil || s.Open == nil {
		panic("backend: RegisterScheme: " + name + ": Check and Open are both required")
	}
	schemes[name] = s
}

// lookupScheme splits a spec into its scheme name and argument and finds
// the registered handler, if any.
func lookupScheme(spec string) (s Scheme, arg string, ok bool) {
	name, arg, _ := strings.Cut(spec, ":")
	schemeMu.RLock()
	s, ok = schemes[name]
	schemeMu.RUnlock()
	return s, arg, ok
}

// SpecGrammar names the accepted spec forms for error messages,
// including every registered scheme.
func SpecGrammar() string {
	forms := []string{"sim", "perturbed", "recorded:<path>"}
	schemeMu.RLock()
	for name := range schemes {
		forms = append(forms, name+"[:<arg>]")
	}
	schemeMu.RUnlock()
	sort.Strings(forms[3:])
	return strings.Join(forms, ", ")
}

// CheckSpec validates a backend spec string without touching the
// filesystem — the server uses it to reject bad requests before a job is
// created. The grammar is: "sim" | "perturbed" | "recorded:<path>" plus
// any scheme added via RegisterScheme ("counter[:<source>]" when
// internal/counter is linked in).
func CheckSpec(spec string) error {
	switch {
	case spec == "sim", spec == "perturbed":
		return nil
	case strings.HasPrefix(spec, "recorded:"):
		if strings.TrimPrefix(spec, "recorded:") == "" {
			return fmt.Errorf("backend: %q: recorded needs a trace path (recorded:<path>)", spec)
		}
		return nil
	case spec == "recorded":
		return fmt.Errorf("backend: %q: recorded needs a trace path (recorded:<path>)", spec)
	default:
		if s, arg, ok := lookupScheme(spec); ok {
			return s.Check(arg)
		}
		return fmt.Errorf("backend: unknown spec %q (want %s)", spec, SpecGrammar())
	}
}

// Parse builds one backend from its spec string. recorded:<path> opens
// the trace eagerly, so a missing or corrupt trace fails here, not
// mid-run.
func Parse(spec string, opts Options) (Backend, error) {
	if err := CheckSpec(spec); err != nil {
		return nil, err
	}
	switch {
	case spec == "sim":
		return NewSim(opts), nil
	case spec == "perturbed":
		return NewPerturbedSim(opts), nil
	case strings.HasPrefix(spec, "recorded:"):
		return OpenTrace(strings.TrimPrefix(spec, "recorded:"))
	default:
		s, arg, _ := lookupScheme(spec)
		return s.Open(arg, opts)
	}
}

// ParseList builds backends from a comma-separated spec list, rejecting
// duplicates by name (two backends with one name would collide in the
// checkpoint shard keyspace and produce a meaningless self-comparison).
func ParseList(specs string, opts Options) ([]Backend, error) {
	var out []Backend
	seen := map[string]bool{}
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		b, err := Parse(spec, opts)
		if err != nil {
			for _, prev := range out {
				prev.Close()
			}
			return nil, err
		}
		if seen[b.Name()] {
			b.Close()
			for _, prev := range out {
				prev.Close()
			}
			return nil, fmt.Errorf("backend: duplicate backend name %q in %q", b.Name(), specs)
		}
		seen[b.Name()] = true
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("backend: empty spec list %q", specs)
	}
	return out, nil
}
