package harness

import (
	"fmt"

	"bhive/internal/backend"
	"bhive/internal/profiler"
	"bhive/internal/stats"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// XValID is the experiment id of the backend cross-validation report. It
// is not part of Names() — "all" regenerates the paper's tables, and
// cross-validation multiplies the profiling cost by the backend count —
// but RunStructured accepts it, and AllNames advertises it.
const XValID = "xval"

// AllNames lists every runnable experiment id: the paper's tables and
// figures (Names) plus the cross-validation and bound-check extensions.
func AllNames() []string { return append(Names(), XValID, BoundCheckID) }

// backends returns the configured measurement backends, defaulting to a
// single stock-simulator backend wired to the suite's metrics —
// so `xval` with no -backend flag is exactly the ground truth every other
// experiment uses.
func (s *Suite) backends() []backend.Backend {
	if len(s.cfg.Backends) > 0 {
		return s.cfg.Backends
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.defaultBE == nil {
		s.defaultBE = backend.NewSim(backend.Options{Metrics: s.cfg.Metrics})
	}
	return []backend.Backend{s.defaultBE}
}

// backendArchKey is the checkpoint shard namespace of one (µarch,
// backend) measurement pass. The "@" keeps it disjoint from the plain
// cpu-name keys the model-evaluation passes use, so one journal can hold
// both.
func backendArchKey(cpu *uarch.CPU, be backend.Backend) string {
	return cpu.Name + "@" + be.Name()
}

// xvalMeas measures the whole corpus with every backend on every cpu —
// sharded, checkpointed, block-major over all the (µarch, backend) keys
// no earlier pass measured, and computed at most once per key per suite.
// The result is indexed [cpu][backend]. Simulator-backed backends
// (profiledBackend) share each block's functional pass; any other
// backend, or a Recorder, measures through Measure on its own. Backends
// that share Config.Metrics (the evaluation server wires its job metrics
// into both) get the same overall-rate/ETA reporting as the stock
// measurement pass.
func (s *Suite) xvalMeas(cpus []*uarch.CPU, bes []backend.Backend) ([][][]measurement, error) {
	lanes := make([]lane, 0, len(cpus)*len(bes))
	for _, cpu := range cpus {
		for _, be := range bes {
			lanes = append(lanes, backendLane(be, cpu))
		}
	}
	ms, err := s.measured(lanes, s.passMetrics(), false)
	if err != nil {
		return nil, err
	}
	out := make([][][]measurement, len(cpus))
	for ci := range cpus {
		out[ci] = ms[ci*len(bes) : (ci+1)*len(bes)]
	}
	return out, nil
}

// profiledBackend is a backend whose Measure is exactly
// Profiler(cpu).Profile: the simulator backends. Wrappers that must see
// every measurement, like the Recorder, do not implement it.
type profiledBackend interface {
	Profiler(cpu *uarch.CPU) *profiler.Profiler
}

// backendLane is the xval lane of one backend on one µarch.
func backendLane(be backend.Backend, cpu *uarch.CPU) lane {
	l := lane{key: backendArchKey(cpu, be)}
	switch b := be.(type) {
	case profiledBackend:
		l.prof = b.Profiler(cpu)
		return l
	case *backend.Recorder:
		l.alone = "recorder"
	default:
		l.alone = "not a simulator backend"
	}
	l.measure = func(b *x86.Block) measurement {
		m := be.Measure(b, cpu)
		return measurement{tp: m.Throughput, status: m.Status}
	}
	return l
}

// CrossValidation measures the corpus with every configured backend on
// the given microarchitectures and reports their pairwise agreement in
// the shape of the paper's model-error tables: a coverage table (per
// backend, how much of the suite it accepts), a pairwise table (average
// relative error, Kendall's τ, status agreement — Table V/VI columns with
// backends in the model seat), and a status-disagreement matrix. With a
// single backend the pairwise tables are headers only and the report
// reduces to that backend's coverage — which is what makes a recorded
// trace's replay byte-comparable to the run that produced it.
func (s *Suite) CrossValidation(cpus []*uarch.CPU) ([]*Table, error) {
	bes := s.backends()

	cov := &Table{
		ID:     "xval-coverage",
		Title:  "Backend coverage: suite fraction accepted per measurement backend",
		Header: []string{"Microarchitecture", "Backend", "Blocks", "OK", "Profiled", "Mean Throughput"},
	}
	pair := &Table{
		ID:     "xval",
		Title:  "Pairwise backend cross-validation (blocks accepted by both)",
		Header: []string{"Microarchitecture", "Backends", "Both OK", "Average Error", "Kendall's Tau", "Status Agreement"},
	}
	disagree := &Table{
		ID:     "xval-status",
		Title:  "Status disagreement matrix (blocks where paired backends rejected differently)",
		Header: []string{"Microarchitecture", "Backends", "Status A", "Status B", "Blocks"},
	}

	all, err := s.xvalMeas(cpus, bes)
	if err != nil {
		return nil, err
	}
	for ci, cpu := range cpus {
		meas := all[ci]
		for bi, be := range bes {
			m := meas[bi]

			var mean stats.Running
			ok := 0
			for i := range m {
				if m[i].status == profiler.StatusOK && m[i].tp > 0 {
					ok++
					mean.Add(m[i].tp)
				}
			}
			cov.Rows = append(cov.Rows, []string{
				cpu.Name, be.Name(),
				fmt.Sprintf("%d", len(m)),
				fmt.Sprintf("%d", ok),
				fmt.Sprintf("%.2f%%", 100*float64(ok)/float64(max(len(m), 1))),
				fmt.Sprintf("%.2f", mean.Mean()),
			})
		}

		for ai := 0; ai < len(bes); ai++ {
			for bi := ai + 1; bi < len(bes); bi++ {
				label := bes[ai].Name() + " vs " + bes[bi].Name()
				var errMean stats.Running
				var tau stats.TauAcc
				tau.Reserve(len(s.recs))
				agree, both := 0, 0
				counts := map[[2]profiler.Status]int{}
				for i := range s.recs {
					a, b := meas[ai][i], meas[bi][i]
					if a.status == b.status {
						agree++
					} else {
						counts[[2]profiler.Status{a.status, b.status}]++
					}
					if a.status != profiler.StatusOK || b.status != profiler.StatusOK ||
						a.tp <= 0 || b.tp <= 0 {
						continue
					}
					both++
					errMean.Add(stats.RelError(a.tp, b.tp))
					tau.Add(a.tp, b.tp)
				}
				pair.Rows = append(pair.Rows, []string{
					cpu.Name, label,
					fmt.Sprintf("%d", both),
					fmt.Sprintf("%.4f", errMean.Mean()),
					fmt.Sprintf("%.4f", tau.Value()),
					fmt.Sprintf("%.2f%%", 100*float64(agree)/float64(max(len(s.recs), 1))),
				})
				// Matrix cells in status order, nonzero only, so the table is
				// deterministic and dense.
				for sa := profiler.StatusOK; sa <= profiler.StatusUnstable; sa++ {
					for sb := profiler.StatusOK; sb <= profiler.StatusUnstable; sb++ {
						if c := counts[[2]profiler.Status{sa, sb}]; c > 0 {
							disagree.Rows = append(disagree.Rows, []string{
								cpu.Name, label, sa.String(), sb.String(), fmt.Sprintf("%d", c),
							})
						}
					}
				}
			}
		}
	}

	cov.Notes = append(cov.Notes, fmt.Sprintf("suite scale %.4g (%d blocks), seed %d",
		s.cfg.Scale, len(s.recs), s.cfg.Seed))
	if len(bes) < 2 {
		pair.Notes = append(pair.Notes, "single backend: no pairs to cross-validate")
	} else {
		pair.Notes = append(pair.Notes,
			"Average Error is mean |tpA - tpB| / tpB over blocks both backends accept; agreement counts identical statuses")
	}
	return []*Table{cov, pair, disagree}, nil
}
