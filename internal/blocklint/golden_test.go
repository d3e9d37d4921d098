package blocklint

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the per-block lint golden file")

const (
	exampleCorpus  = "testdata/example_corpus.csv"
	perBlockGolden = "testdata/example_corpus.blocks.golden"
)

// renderPerBlock renders one line per (corpus row, µarch): the predicted
// status and exactness, every diagnostic's code and location, the
// dependence facts and every memory fact (MemFact's fields in declaration
// order). Messages are left out so their wording can change without
// touching the pinned verdicts.
func renderPerBlock(t *testing.T) string {
	t.Helper()
	f, err := os.Open(exampleCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := corpus.ReadCSVRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, cpu := range uarch.Extended() {
		a := New(cpu, profiler.DefaultOptions())
		for _, row := range rows {
			rep := a.AnalyzeHex(row.Hex)
			fmt.Fprintf(&sb, "%d %s %s exact=%t", row.Line, cpu.Name, rep.PredictedName, rep.Exact)
			for _, d := range rep.Diags {
				fmt.Fprintf(&sb, " %s@%d:%d", d.Code, d.Inst, d.Offset)
			}
			if fc := rep.Facts; fc != nil {
				fmt.Fprintf(&sb, " dep=%d crit=%d", fc.DepHeight, fc.CritLatency)
				for _, m := range fc.Mem {
					fmt.Fprintf(&sb, " mem%v", m)
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestPerBlockGolden pins the analyzer's per-block output over the
// example corpus on every extended µarch. Regenerate with
// go test ./internal/blocklint -run TestPerBlockGolden -update-golden.
func TestPerBlockGolden(t *testing.T) {
	got := renderPerBlock(t)
	if *updateGolden {
		if err := os.WriteFile(perBlockGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(perBlockGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("per-block output drifted from %s at line %d:\n got: %s\nwant: %s", perBlockGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("per-block output drifted from %s: %d lines, want %d", perBlockGolden, len(gl), len(wl))
}
