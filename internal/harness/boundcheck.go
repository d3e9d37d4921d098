package harness

import (
	"fmt"

	"bhive/internal/bound"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
)

// BoundCheckID is the experiment id of the sim-vs-bounds crosscheck. Like
// XValID it is not part of Names() — "all" regenerates the paper's tables,
// and the crosscheck is a validation harness, not a paper artifact — but
// RunStructured accepts it, AllNames advertises it, and the evaluation
// server schedules it as a job experiment.
const BoundCheckID = "boundcheck"

// boundEps absorbs float rounding in lower*n comparisons against integer
// cycle counters; the bounds themselves carry no tolerance.
const boundEps = 1e-6

// maxViolationRows caps the violation table; the expected count is zero,
// so a cap only matters when something is badly broken.
const maxViolationRows = 50

// BoundCheck runs the simulator over the corpus and asserts, per (block,
// µarch), that the measured total cycle count lies inside the static
// bounds: lower·n ≤ cycles(n) ≤ upper·n at the measured unroll factor n.
// The check is on totals, not marginal throughput, because that is where
// the bounds are sound: the marginal estimate (C_hi−C_lo)/(hi−lo) can dip
// a fraction of a cycle below the asymptotic rate when the low-factor run
// carries transient wobble, without any simulator bug. A violation here is
// a simulator or bound-analysis bug by construction.
func (s *Suite) BoundCheck(cpus []*uarch.CPU) ([]*Table, error) {
	summary := &Table{
		ID:    "boundcheck",
		Title: "Static bounds vs simulator (lower*n <= cycles <= upper*n at measured unroll n)",
		Header: []string{"Microarchitecture", "Blocks", "Checked", "Vacuous",
			"DepChain", "Port", "FrontEnd", "Violations"},
	}
	viol := &Table{
		ID:    "boundcheck-violations",
		Title: "Bound violations (each row is a simulator or bound-analysis bug)",
		Header: []string{"Microarchitecture", "Block", "Unroll", "Cycles",
			"Lower*n", "Upper*n", "Verdict"},
	}

	total := 0
	for _, cpu := range cpus {
		results := s.profileResults(cpu)
		checked, vacuous, violations := 0, 0, 0
		var verdicts [3]int
		for i := range s.recs {
			r := &results[i]
			if r.Status != profiler.StatusOK || r.Throughput <= 0 ||
				r.Counters.Cycles == 0 || r.UnrollHi <= 0 {
				continue
			}
			bs, err := bound.Analyze(cpu, s.recs[i].Block)
			if err != nil {
				// Describable by the simulator but not the analyzer would be
				// a wiring bug; both read the same memo entries, so an OK profile
				// implies analyzability.
				return nil, fmt.Errorf("boundcheck: %s: %w", cpu.Name, err)
			}
			checked++
			if bs.Vacuous {
				vacuous++
			}
			verdicts[bs.Verdict]++
			n := float64(r.UnrollHi)
			c := float64(r.Counters.Cycles)
			low, high := c < bs.Lower*n-boundEps, c > bs.Upper*n+boundEps
			if !low && !high {
				continue
			}
			violations++
			if len(viol.Rows) < maxViolationRows {
				hexStr, _ := s.recs[i].Block.Hex()
				viol.Rows = append(viol.Rows, []string{
					cpu.Name, hexStr,
					fmt.Sprintf("%d", r.UnrollHi),
					fmt.Sprintf("%.0f", c),
					fmt.Sprintf("%.2f", bs.Lower*n),
					fmt.Sprintf("%.2f", bs.Upper*n),
					bs.VerdictString(),
				})
			}
		}
		total += violations
		summary.Rows = append(summary.Rows, []string{
			cpu.Name,
			fmt.Sprintf("%d", len(s.recs)),
			fmt.Sprintf("%d", checked),
			fmt.Sprintf("%d", vacuous),
			fmt.Sprintf("%d", verdicts[bound.VerdictDepChain]),
			fmt.Sprintf("%d", verdicts[bound.VerdictPort]),
			fmt.Sprintf("%d", verdicts[bound.VerdictFrontEnd]),
			fmt.Sprintf("%d", violations),
		})
	}
	summary.Notes = append(summary.Notes,
		fmt.Sprintf("total violations: %d", total),
		"checked = status-ok blocks; vacuous = bounds over generic fallback descriptors (BL015)",
	)
	tables := []*Table{summary}
	if len(viol.Rows) > 0 {
		tables = append(tables, viol)
	}
	return tables, nil
}

// profileResults profiles the whole corpus keeping full results (the
// model-evaluation path keeps only throughput+status, but the bound check
// needs the cycle counters and unroll factors; the profile cache makes
// the second pass cheap when both run).
func (s *Suite) profileResults(cpu *uarch.CPU) []profiler.Result {
	out := make([]profiler.Result, len(s.recs))
	newProfiler := func() *profiler.Profiler { return s.newProfiler(cpu, profiler.DefaultOptions(), s.cfg.Metrics) }
	parallel(s, len(s.recs), newProfiler, func(p *profiler.Profiler, i int) {
		out[i] = p.Profile(s.recs[i].Block)
		s.profileCalls.Add(1)
	})
	return out
}
