package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module rooted at a temp dir. files
// maps module-relative paths to source text.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	all := map[string]string{"go.mod": "module bhive\n\ngo 1.22\n"}
	for k, v := range files {
		all[k] = v
	}
	for rel, src := range all {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// check runs every analyzer over the synthetic module and returns the
// rendered findings.
func check(t *testing.T, files map[string]string) []string {
	t.Helper()
	root := writeModule(t, files)
	fs, err := Check(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// statsStub stands in for bhive/internal/stats in synthetic modules.
const statsStub = `package stats

func RelError(p, m float64) float64 { return (p - m) / m }

type Running struct{ n int; sum float64 }

func (r *Running) Add(x float64) { r.n++; r.sum += x }
func (r *Running) Mean() float64 { return r.sum / float64(r.n) }
`

func TestExitCheckFlagsHelpers(t *testing.T) {
	got := check(t, map[string]string{
		"cmd/tool/main.go": `package main

import (
	"fmt"
	"os"
)

func main() {
	if err := run(); err != nil {
		os.Exit(1) // allowed: inside main
	}
}

func run() error {
	go func() {
		os.Exit(130) // allowed: literal nested in run
	}()
	return nil
}

func fatal(err error) {
	fmt.Println(err)
	os.Exit(1) // flagged: helper outside main/run
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("findings = %v, want exactly the fatal() helper", got)
	}
	if !strings.Contains(got[0], "main.go:23") || !strings.Contains(got[0], "os.Exit") {
		t.Fatalf("finding %q should locate os.Exit in fatal()", got[0])
	}
}

func TestExitCheckFlagsLogFatalAndRenames(t *testing.T) {
	got := check(t, map[string]string{
		// A library package: nothing is allowed, and an import rename
		// must not hide the call (resolution is via go/types).
		"internal/worker/worker.go": `package worker

import (
	l "log"
	goos "os"
)

func Do() {
	l.Fatalf("boom") // flagged
}

func Quit() {
	goos.Exit(2) // flagged
}
`,
	})
	if len(got) != 2 {
		t.Fatalf("findings = %v, want log.Fatalf and os.Exit", got)
	}
	if !strings.Contains(got[0], "log.Fatalf") || !strings.Contains(got[1], "os.Exit") {
		t.Fatalf("findings %v should name the terminators", got)
	}
}

func TestExitCheckIgnoresBuildIgnoredFiles(t *testing.T) {
	got := check(t, map[string]string{
		"tools/gen.go": `//go:build ignore

package main

import "os"

func helper() { os.Exit(1) }

func main() {}
`,
		"tools/doc.go": "package tools\n",
	})
	if len(got) != 0 {
		t.Fatalf("findings = %v, want none for a go:build ignore file", got)
	}
}

func TestNaNAggrFlagsDirectAccumulation(t *testing.T) {
	got := check(t, map[string]string{
		"internal/stats/stats.go": statsStub,
		"internal/agg/agg.go": `package agg

import "bhive/internal/stats"

func Sum(ps, ms []float64) float64 {
	var total float64
	for i := range ps {
		total += stats.RelError(ps[i], ms[i]) // flagged: one NaN poisons total
	}
	return total
}

func Spread(ps, ms []float64) float64 {
	var d float64
	for i := range ps {
		d -= 2 * stats.RelError(ps[i], ms[i]) // flagged: -= and nested expr
	}
	return d
}

func SafeMean(ps, ms []float64) float64 {
	var r stats.Running
	for i := range ps {
		r.Add(stats.RelError(ps[i], ms[i])) // fine: NaN-aware accumulator
	}
	return r.Mean()
}

func Unrelated(ws []int) float64 {
	var total float64
	for _, w := range ws {
		total += float64(w) // fine: not a stats result
	}
	return total
}
`,
	})
	if len(got) != 2 {
		t.Fatalf("findings = %v, want the two direct accumulations", got)
	}
	for _, f := range got {
		if !strings.Contains(f, "nanaggr") || !strings.Contains(f, "stats.RelError") {
			t.Fatalf("finding %q should blame stats.RelError", f)
		}
	}
}

func TestNaNAggrAllowsStatsPackageItself(t *testing.T) {
	got := check(t, map[string]string{
		"internal/stats/stats.go": statsStub + `
func selfSum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += RelError(x, 1) // stats may aggregate its own values
	}
	return total
}
`,
	})
	if len(got) != 0 {
		t.Fatalf("findings = %v, want none inside internal/stats", got)
	}
}

func TestAtomicWriteRequiresDirSync(t *testing.T) {
	got := check(t, map[string]string{
		"internal/store/store.go": `package store

import (
	"os"
	"path/filepath"
)

func saveBare(path string, raw []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp.Write(raw)
	tmp.Sync() // temp-file sync alone is not enough
	tmp.Close()
	return os.Rename(tmp.Name(), path) // flagged: no directory sync after
}

func saveDurable(path string, raw []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp.Write(raw)
	tmp.Sync()
	tmp.Close()
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync() // fine: directory handle synced after the rename
}

func saveViaHelper(path string, raw []byte) error {
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path)) // fine: named helper wraps the fsync
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("findings = %v, want exactly the bare rename", got)
	}
	if !strings.Contains(got[0], "atomicwrite") || !strings.Contains(got[0], "store.go:16") {
		t.Fatalf("finding %q should locate the rename in saveBare", got[0])
	}
}

func TestPoolPutFlagsLeakyGet(t *testing.T) {
	got := check(t, map[string]string{
		"internal/buf/buf.go": `package buf

import "sync"

var pool = sync.Pool{New: func() any { return new([]byte) }}

func Leaky(n int) int {
	b := pool.Get().(*[]byte) // flagged: no Put on any path
	return n + len(*b)
}

func Balanced(n int) int {
	b := pool.Get().(*[]byte)
	defer pool.Put(b) // fine: covers every return path
	if n < 0 {
		return 0
	}
	return len(*b)
}

func ClosureBalanced(n int) int {
	b := pool.Get().(*[]byte)
	defer func() { pool.Put(b) }() // fine: Put inside a deferred closure
	return n
}

func Transfer() *[]byte {
	if v := pool.Get(); v != nil {
		return v.(*[]byte) // fine: ownership moves to the caller
	}
	return new([]byte)
}

func TransferDirect() *[]byte {
	return pool.Get().(*[]byte) // fine: returned without a binding
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("findings = %v, want exactly the leaky Get", got)
	}
	if !strings.Contains(got[0], "poolput") || !strings.Contains(got[0], "buf.go:8") {
		t.Fatalf("finding %q should locate the Get in Leaky", got[0])
	}
}

// x86Stub stands in for bhive/internal/x86 in synthetic modules: the
// opcode enum with its sentinel, and bounds checks of its own.
const x86Stub = `package x86

type Op uint16

const (
	BAD Op = iota
	MOV
	VMOVSS
	VADDPS
	NumOps

	vexAfterMov = VMOVSS > MOV // fine: the enum's own declaration
)

const vexLast = VADDPS >= VMOVSS // flagged

func (op Op) Valid() bool { return op < NumOps }

func (op Op) IsVexByRange() bool { return op >= VMOVSS } // flagged
`

func TestOpRangeFlagsEnumOrder(t *testing.T) {
	got := check(t, map[string]string{
		"internal/x86/x86.go": x86Stub,
		"internal/exec/exec.go": `package exec

import x "bhive/internal/x86"

type Reg uint8

func Vex(op x.Op) bool {
	return op >= x.VMOVSS && // flagged
		x.VADDPS >= op // flagged: constant on the left
}

func Bounded(op x.Op) bool { return op < x.NumOps && (x.NumOps) > op } // fine: the sentinel

func Same(op x.Op) bool { return op == x.MOV } // fine: equality

func Literal(op x.Op) bool { return op <= 2 } // flagged: an untyped opcode

func Regs(r Reg) bool { return r < 3 } // fine: not an Op
`,
	})
	want := []string{"exec.go:8", "exec.go:9", "exec.go:16", "x86.go:15", "x86.go:19"}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %d at %v", got, len(want), want)
	}
	for i, w := range want {
		if !strings.Contains(got[i], "oprange") || !strings.Contains(got[i], w) {
			t.Errorf("finding %q, want oprange at %s", got[i], w)
		}
	}
}

// TestRepoIsClean runs both passes over the real repository: the
// invariants hold on the tree as committed. This is the same check CI
// runs via cmd/bhive-vet, kept here so `go test ./...` catches a
// violation first.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	fs, err := Check(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
