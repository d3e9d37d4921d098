package backend

import (
	"sync"

	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// sim is the shared simulator-backed implementation: a lazily built,
// mutex-guarded pool of one profiler.Profiler per (possibly remapped)
// microarchitecture. profiler.Profiler is itself safe for concurrent
// use, so Measure only locks to find-or-create the per-CPU entry.
type sim struct {
	name  string
	opts  Options
	remap func(*uarch.CPU) *uarch.CPU // nil = identity

	mu    sync.Mutex
	profs map[string]*profiler.Profiler // keyed by the *original* CPU name
}

// SimBackend measures with the cycle-level simulator under its stock
// parameter files — the repo's default ground truth, wrapping
// profiler.Profiler unchanged.
type SimBackend struct{ sim }

// NewSim builds the default simulator backend.
func NewSim(opts Options) *SimBackend {
	return &SimBackend{sim{name: "sim", opts: opts}}
}

// PerturbedSimBackend measures with the same simulator under a second
// parameterization of every microarchitecture (uarch.CPU.Perturbed):
// scaled latencies and a thinned port map, standing in for a
// differently-calibrated machine.
type PerturbedSimBackend struct{ sim }

// NewPerturbedSim builds the perturbed-parameterization backend.
func NewPerturbedSim(opts Options) *PerturbedSimBackend {
	return &PerturbedSimBackend{sim{
		name:  "perturbed",
		opts:  opts,
		remap: func(c *uarch.CPU) *uarch.CPU { return c.Perturbed() },
	}}
}

func (s *sim) Name() string { return s.name }

// Fingerprint is the backend name plus the profiler options it runs
// under; the perturbed CPU rename is implied by the name.
func (s *sim) Fingerprint() string {
	return s.name + "|" + s.opts.profilerOptions().Fingerprint()
}

// Profiler returns the profiler the backend measures cpu with, built on
// first use and the same on every call: Measure is exactly
// Profiler(cpu).Profile, so a caller measuring one block on several keys
// can measure them all from one functional pass (profiler.ProfileEach).
func (s *sim) Profiler(cpu *uarch.CPU) *profiler.Profiler {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.profs == nil {
		s.profs = make(map[string]*profiler.Profiler)
	}
	p := s.profs[cpu.Name]
	if p == nil {
		target := cpu
		if s.remap != nil {
			target = s.remap(cpu)
		}
		p = profiler.New(target, s.opts.profilerOptions())
		p.Metrics = s.opts.Metrics
		s.profs[cpu.Name] = p
	}
	return p
}

func (s *sim) Measure(b *x86.Block, cpu *uarch.CPU) Measurement {
	r := s.Profiler(cpu).Profile(b)
	return Measurement{
		Status:     r.Status,
		Throughput: r.Throughput,
		Counters:   r.Counters,
		Err:        r.Err,
	}
}

func (s *sim) Close() error { return nil }
