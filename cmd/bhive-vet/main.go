// Command bhive-vet runs the repository's custom static-analysis passes
// (internal/analyzers) over the module: exitcheck, which confines
// process-terminating calls to main.main/main.run so deferred cache
// flushes cannot be skipped; nanaggr, which rejects NaN-unsafe float64
// accumulation of internal/stats results; atomicwrite and poolput; and
// oprange, which rejects ordered comparisons of an x86.Op against an
// opcode constant (the opcode table owns those facts).
//
// It is a self-contained, stdlib-only driver — no go/analysis framework
// and no vettool plumbing — so it runs anywhere the repo builds:
//
//	go run ./cmd/bhive-vet ./...
//	go run ./cmd/bhive-vet ./internal/harness ./cmd/bhive-eval
//
// Exit status is 1 when any finding is reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bhive/internal/analyzers"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "bhive-vet:", err)
		code = 2
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("bhive-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	passes := analyzers.All()
	if *list {
		for _, a := range passes {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*analyzers.Analyzer
		for _, a := range passes {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			return 2, fmt.Errorf("unknown analyzer %q", name)
		}
		passes = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		return 2, err
	}
	findings, err := analyzers.Check(modRoot, patterns, passes)
	if err != nil {
		return 2, err
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "bhive-vet: %d finding(s)\n", len(findings))
		return 1, nil
	}
	return 0, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, so the driver works from any subdirectory of the repo.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
