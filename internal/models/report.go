package models

import (
	"fmt"
	"strings"

	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Report renders an IACA-style throughput analysis of a basic block: the
// per-instruction micro-op/port table, the per-port pressure summary, the
// predicted steady-state throughput, and the bound (what limits it). It
// uses the unperturbed microarchitectural tables — this is the report a
// perfect analyzer would print.
func Report(cpu *uarch.CPU, b *x86.Block) (string, error) {
	if len(b.Insts) == 0 {
		return "", errEmptyBlock
	}
	pure := tableOpts{salt: "report", zeroIdioms: true, moveElim: true}
	insts, err := buildSimInsts(cpu, b, pure, true)
	if err != nil {
		return "", err
	}
	tp, err := new(simScratch).derivedPrediction(insts, cpu.IssueWidth, cpu.NumPorts, len(b.Insts))
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Throughput analysis report (%s)\n", cpu.Name)
	fmt.Fprintf(&sb, "Block throughput: %.2f cycles/iteration\n\n", tp)

	// Per-instruction table.
	fmt.Fprintf(&sb, "| fused | %s | lat | instruction\n", portHeaders(cpu.NumPorts))
	pressure := make([]float64, cpu.NumPorts)
	fusedTotal := 0
	for i := range insts {
		si := &insts[i]
		cells := make([]float64, cpu.NumPorts)
		lat := 0
		for _, u := range si.uops {
			n := u.ports.Count()
			if n == 0 {
				continue
			}
			for p := 0; p < cpu.NumPorts; p++ {
				if u.ports.Has(p) {
					cells[p] += 1 / float64(n)
					pressure[p] += 1 / float64(n)
				}
			}
			lat += u.lat
		}
		fusedTotal += si.fused
		note := ""
		if si.zeroIdiom {
			note = "  (zero idiom: eliminated)"
		} else if si.elimMove {
			note = "  (move eliminated)"
		}
		fmt.Fprintf(&sb, "| %5d | %s | %3d | %s%s\n",
			si.fused, portCells(cells), lat, si.text, note)
	}

	fmt.Fprintf(&sb, "|-------+%s\n", strings.Repeat("-", 6*cpu.NumPorts))
	fmt.Fprintf(&sb, "| total | %s |\n\n", portCells(pressure))

	// Bound analysis.
	frontEnd := float64(fusedTotal) / float64(cpu.IssueWidth)
	maxPort, maxP := 0, 0.0
	for p, v := range pressure {
		if v > maxP {
			maxP, maxPort = v, p
		}
	}
	fmt.Fprintf(&sb, "front-end bound: %.2f cycles (%d fused µops / width %d)\n",
		frontEnd, fusedTotal, cpu.IssueWidth)
	fmt.Fprintf(&sb, "port bound:      %.2f cycles (port %d)\n", maxP, maxPort)
	switch {
	case tp > maxP+0.5 && tp > frontEnd+0.5:
		sb.WriteString("bound:           dependency chains (latency)\n")
	case maxP >= frontEnd:
		fmt.Fprintf(&sb, "bound:           backend port %d\n", maxPort)
	default:
		sb.WriteString("bound:           front end\n")
	}
	return sb.String(), nil
}

func portHeaders(n int) string {
	parts := make([]string, n)
	for p := 0; p < n; p++ {
		parts[p] = fmt.Sprintf(" p%d  ", p)
	}
	return strings.Join(parts, "")
}

func portCells(cells []float64) string {
	parts := make([]string, len(cells))
	for p, v := range cells {
		if v == 0 {
			parts[p] = "  -  "
		} else {
			parts[p] = fmt.Sprintf("%4.1f ", v)
		}
	}
	return strings.Join(parts, "")
}
