// Command bhive-lint statically audits basic blocks without timing them:
// for each block it replays the profiler's functional pass to predict how
// the measurement protocol will classify it, checks encode/decode
// round-trip fidelity, and derives per-block facts (dependence height,
// memory address classes). Over a corpus CSV it prints a per-diagnostic
// histogram; with -json it emits one report object per block.
//
// Usage:
//
//	bhive-lint -uarch haswell -corpus corpus.csv
//	bhive-lint -hex 31c9f7f1
//	bhive-lint -corpus corpus.csv -json > reports.jsonl
//	bhive-lint -corpus corpus.csv -expect golden.txt   # CI fixture check
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bhive/internal/blocklint"
	"bhive/internal/bound"
	"bhive/internal/corpus"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "bhive-lint:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bhive-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		arch      = fs.String("uarch", "haswell", "microarchitecture: ivybridge, haswell, skylake, icelake")
		corpusCSV = fs.String("corpus", "", "audit every block of this corpus CSV")
		asmF      = fs.String("asm", "", "audit every block of this assembly listing ('@ app [freq]' headers, Intel or AT&T instructions)")
		hexStr    = fs.String("hex", "", "audit a single block given as machine-code hex")
		jsonOut   = fs.Bool("json", false, "emit one JSON report per block instead of text")
		verbose   = fs.Bool("v", false, "print per-block diagnostics, not just the histogram")
		noMap     = fs.Bool("no-mapping", false, "audit under the Agner-script baseline options")
		expect    = fs.String("expect", "", "compare the histogram against this golden file and fail on drift")
		bounds    = fs.Bool("bounds", false, "print per-block static cycle bounds and the bottleneck verdict")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cpu, err := uarch.ByName(*arch)
	if err != nil {
		return err
	}
	opts := profiler.DefaultOptions()
	if *noMap {
		opts = profiler.BaselineOptions()
	}
	lint := blocklint.New(cpu, opts)

	if *corpusCSV != "" && *asmF != "" {
		return fmt.Errorf("-corpus and -asm are mutually exclusive")
	}
	switch {
	case *hexStr != "":
		rep := lint.AnalyzeHex(*hexStr)
		if *jsonOut {
			return writeJSON(stdout, rep)
		}
		printReport(stdout, "", rep, *bounds)
		return nil
	case *corpusCSV != "":
		f, err := os.Open(*corpusCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		rows, err := corpus.ReadCSVRaw(f)
		if err != nil {
			return err
		}
		return audit(stdout, lint, rows, *jsonOut, *verbose, *bounds, *expect)
	case *asmF != "":
		f, err := os.Open(*asmF)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err := corpus.ReadAsm(f)
		if err != nil {
			return err
		}
		rows, err := corpus.RawRecords(recs)
		if err != nil {
			return err
		}
		return audit(stdout, lint, rows, *jsonOut, *verbose, *bounds, *expect)
	default:
		return fmt.Errorf("need -corpus, -asm or -hex (see -h)")
	}
}

// audit analyzes every row and prints the per-diagnostic histogram (or
// JSON reports). With a golden file, the histogram is compared against it.
func audit(stdout io.Writer, lint *blocklint.Analyzer, rows []corpus.RawRecord, jsonOut, verbose, bounds bool, expect string) error {
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()

	codeHist := map[blocklint.Code]int{}
	statusHist := map[string]int{}
	rejected := 0
	for _, row := range rows {
		rep := lint.AnalyzeHex(row.Hex)
		statusHist[rep.PredictedName]++
		if rep.Rejected() {
			rejected++
		}
		seen := map[blocklint.Code]bool{}
		for _, d := range rep.Diags {
			if !seen[d.Code] {
				seen[d.Code] = true
				codeHist[d.Code]++
			}
		}
		if jsonOut {
			if err := writeJSON(bw, struct {
				App  string `json:"app"`
				Line int    `json:"line"`
				*blocklint.Report
			}{row.App, row.Line, rep}); err != nil {
				return err
			}
			continue
		}
		if bounds && rep.Bounds != nil {
			fmt.Fprintf(bw, "%s:%d %s bounds=%s\n", row.App, row.Line, row.Hex, boundsLine(rep.Bounds))
		}
		if verbose && len(rep.Diags) > 0 {
			fmt.Fprintf(bw, "%s:%d %s (%s)\n", row.App, row.Line, row.Hex, rep.PredictedName)
			for _, d := range rep.Diags {
				fmt.Fprintf(bw, "  %s\n", d)
			}
		}
	}
	if jsonOut {
		return nil
	}

	summary := renderSummary(len(rows), rejected, statusHist, codeHist)
	fmt.Fprint(bw, summary)
	if expect != "" {
		want, err := os.ReadFile(expect)
		if err != nil {
			return err
		}
		if norm(string(want)) != norm(summary) {
			return fmt.Errorf("histogram drifted from %s:\n--- want ---\n%s--- got ---\n%s",
				expect, string(want), summary)
		}
		fmt.Fprintf(bw, "matches %s\n", expect)
	}
	return nil
}

// renderSummary formats the audit histograms deterministically.
func renderSummary(total, rejected int, statusHist map[string]int, codeHist map[blocklint.Code]int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "blocks:   %d audited, %d statically rejected\n", total, rejected)

	statuses := make([]string, 0, len(statusHist))
	for s := range statusHist {
		statuses = append(statuses, s)
	}
	sort.Strings(statuses)
	fmt.Fprintf(&sb, "predicted:")
	for _, s := range statuses {
		fmt.Fprintf(&sb, " %s=%d", s, statusHist[s])
	}
	sb.WriteByte('\n')

	codes := make([]blocklint.Code, 0, len(codeHist))
	for c := range codeHist {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	fmt.Fprintln(&sb, "diagnostics (blocks affected):")
	if len(codes) == 0 {
		fmt.Fprintln(&sb, "  none")
	}
	for _, c := range codes {
		fmt.Fprintf(&sb, "  %s %-7s %d\n", c, c.Severity(), codeHist[c])
	}
	return sb.String()
}

// boundsLine renders a one-line summary of a block's static cycle bounds.
func boundsLine(b *bound.Bounds) string {
	s := fmt.Sprintf("[%.2f, %.2f] cycles/iter (dep=%.2f port=%.2f fe=%.2f) bottleneck=%s",
		b.Lower, b.Upper, b.DepChain, b.PortPressure, b.FrontEnd, b.VerdictString())
	if b.Vacuous {
		s += " VACUOUS"
	}
	return s
}

func printReport(w io.Writer, label string, rep *blocklint.Report, bounds bool) {
	if label != "" {
		fmt.Fprintf(w, "%s:\n", label)
	}
	fmt.Fprintf(w, "block:      %d instructions (%s)\n", rep.NumInsts, rep.Hex)
	fmt.Fprintf(w, "predicted:  %s (guaranteed)\n", rep.PredictedName)
	if bounds && rep.Bounds != nil {
		fmt.Fprintf(w, "bounds:     %s\n", boundsLine(rep.Bounds))
	}
	if rep.Facts != nil {
		f := rep.Facts
		fmt.Fprintf(w, "unroll:     %d and %d (%d code bytes at the high factor)\n",
			f.UnrollLo, f.UnrollHi, f.CodeBytes)
		fmt.Fprintf(w, "dep height: %d cycles/iteration (critical path %d)\n", f.DepHeight, f.CritLatency)
		if len(f.LoopCarried) > 0 {
			fmt.Fprintf(w, "carried:    %s\n", strings.Join(f.LoopCarried, " "))
		}
		for _, m := range f.Mem {
			dir := "load"
			if m.Stores && m.Loads {
				dir = "load+store"
			} else if m.Stores {
				dir = "store"
			}
			fmt.Fprintf(w, "mem:        inst %d %s %s size %d disp %d", m.Inst, dir, m.Class, m.Size, m.Disp)
			if m.Observed {
				fmt.Fprintf(w, " (align %d, %d page(s)", m.Align, m.Pages)
				if m.StrideKnown {
					fmt.Fprintf(w, ", stride %d", m.Stride)
				}
				if m.Splits {
					fmt.Fprint(w, ", line-splitting")
				}
				fmt.Fprint(w, ")")
			}
			fmt.Fprintln(w)
		}
	}
	for _, d := range rep.Diags {
		fmt.Fprintf(w, "diag:       %s\n", d)
	}
}

// norm canonicalizes line endings and trailing whitespace for the golden
// comparison.
func norm(s string) string {
	lines := strings.Split(strings.ReplaceAll(s, "\r\n", "\n"), "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}
