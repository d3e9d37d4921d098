package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	verdictIdentical  = "identical"
	verdictChanged    = "changed"
	verdictReport     = "report only"
)

// compareFiles prints one row per (workload, metric) present in both
// results files, with each side's median and quartiles and a verdict, and
// returns how many rows read worse (or changed, for exact statistics).
// Files from different hosts are reported without verdicts.
func compareFiles(pathA, pathB string, w io.Writer) (worse int, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	sameHost := a.Host.CPU == b.Host.CPU && a.Host.NProc == b.Host.NProc && a.Host.GOMAXPROCS == b.Host.GOMAXPROCS
	fmt.Fprintf(w, "A: %s (%s, nproc %d, %s, revision %s)\n", pathA, a.Host.CPU, a.Host.NProc, a.Host.Go, a.Host.Revision)
	fmt.Fprintf(w, "B: %s (%s, nproc %d, %s, revision %s)\n", pathB, b.Host.CPU, b.Host.NProc, b.Host.Go, b.Host.Revision)
	if !sameHost {
		fmt.Fprintln(w, "different hosts: reporting only, no verdicts")
	}
	fmt.Fprintf(w, "%-8s %-32s %-9s %34s %34s %8s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, name := range a.order {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		for _, sa := range wa.sets() {
			sb := wb.metric(sa.Name)
			if sb == nil {
				continue
			}
			aq1, am, aq3 := sa.quartiles()
			bq1, bm, bq3 := sb.quartiles()
			v := verdictReport
			if sameHost {
				v = verdict(sa.metricDef, sa.Samples, sb.Samples)
			}
			if v == verdictWorse || v == verdictChanged {
				worse++
			}
			fmt.Fprintf(w, "%-8s %-32s %-9s %34s %34s %+7.1f%%  %s\n", name, sa.Name, sa.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", am, aq1, aq3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", bm, bq1, bq3),
				100*relChange(am, bm), v)
		}
	}
	return worse, nil
}

// verdict judges B against A for one metric. A metric with a bound is
// unresolved when either side's quartile spread, relative to its median,
// is wider than the bound; otherwise it is worse or better when the
// median moved by more than the bound in that direction.
func verdict(d metricDef, a, b []float64) string {
	if d.Better == "exact" {
		for _, x := range append(a[:len(a):len(a)], b...) {
			if x != a[0] {
				return verdictChanged
			}
		}
		return verdictIdentical
	}
	if d.Bound == 0 {
		return verdictReport
	}
	set := func(xs []float64) *sampleSet { return &sampleSet{Samples: xs} }
	aq1, am, aq3 := set(a).quartiles()
	bq1, bm, bq3 := set(b).quartiles()
	if math.Max((aq3-aq1)/am, (bq3-bq1)/bm) > d.Bound {
		return verdictUnresolved
	}
	worsening := relChange(am, bm)
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.Bound:
		return verdictWorse
	case worsening < -d.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// relChange is (b-a)/a, or 0 when a is 0.
func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
