// Package analyzers holds the repo's custom static-analysis passes — the
// invariants that ordinary go vet does not know about — plus a small
// stdlib-only driver harness (load.go) so they run without any external
// analysis framework. cmd/bhive-vet is the command-line front end; the
// tests in this package also run every pass over the repository itself,
// so a violation fails `go test ./...` even before CI runs the driver.
//
// Passes:
//
//   - exitcheck: os.Exit and log.Fatal* terminate the process without
//     running deferred cleanups. The CLIs were refactored to a single
//     exit point (`main` calls `run`, every cleanup is a defer inside
//     `run`), precisely so an error path cannot skip flushing the
//     checkpoint journal or a recorded trace. The pass enforces that
//     shape: such calls may appear only in package main, lexically
//     inside the top-level functions `main` or `run`.
//
//   - nanaggr: rejected blocks yield NaN relative errors, and a single
//     NaN poisons any naive `sum += x` aggregate. internal/stats owns
//     the NaN-aware accumulators (stats.Running skips NaN inputs), so
//     outside that package no code may fold a stats-package result into
//     a float64 with `+=`/`-=` directly.
//
//   - atomicwrite: every atomic file write (temp + fsync + rename) must
//     fsync the parent directory after the rename, or a crash can roll
//     the rename back; see AtomicWrite.
//
//   - poolput: every sync.Pool.Get must pair with a deferred Put or
//     hand the object to the caller via return; see PoolPut.
//
//   - oprange: no ordered comparison of an x86.Op against an opcode
//     constant other than NumOps; facts such as "is VEX" or "needs
//     AVX2" come from x86's opcode table, not the enum's order; see
//     OpRange.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// statsPath is the one package allowed to aggregate its own values and
// whose call results must not be accumulated with bare float64 +=.
const statsPath = "bhive/internal/stats"

// A Pass is one type-checked package handed to an Analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Report records a finding at pos.
	Report func(pos token.Pos, format string, args ...any)
}

// An Analyzer is one invariant check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every registered pass, in a stable order.
func All() []*Analyzer {
	return []*Analyzer{ExitCheck, NaNAggr, AtomicWrite, PoolPut, OpRange}
}

// ExitCheck flags os.Exit and log.Fatal/Fatalf/Fatalln calls anywhere
// except lexically inside func main or func run of a package main.
var ExitCheck = &Analyzer{
	Name: "exitcheck",
	Doc:  "os.Exit/log.Fatal* skip deferred cleanups; only main.main/main.run may call them",
	Run:  runExitCheck,
}

// terminators maps the full name of a process-terminating function to
// true. Resolved through go/types, so import renames cannot hide them.
var terminators = map[string]bool{
	"os.Exit":     true,
	"log.Fatal":   true,
	"log.Fatalf":  true,
	"log.Fatalln": true,
}

func runExitCheck(p *Pass) {
	isMain := p.Pkg.Name() == "main"
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body == nil {
				continue
			}
			// Calls inside function literals inherit the enclosing
			// top-level declaration: a goroutine spawned by run() is
			// still run()'s responsibility.
			allowed := ok && isMain && fd.Recv == nil &&
				(fd.Name.Name == "main" || fd.Name.Name == "run")
			if allowed {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || !terminators[fn.FullName()] {
					return true
				}
				p.Report(call.Pos(), "%s terminates the process and skips deferred cleanups; return an error to main.run instead", fn.FullName())
				return true
			})
		}
	}
}

// NaNAggr flags `x += stats.F(...)` (and -=) on float64 outside
// internal/stats: fold error metrics through a stats.Running, which is
// NaN-aware, instead of a bare accumulator that one rejected block can
// poison.
var NaNAggr = &Analyzer{
	Name: "nanaggr",
	Doc:  "float64 += of an internal/stats result is NaN-unsafe; use stats.Running",
	Run:  runNaNAggr,
}

func runNaNAggr(p *Pass) {
	if p.Pkg.Path() == statsPath {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
				return true
			}
			// x += y is always 1:1.
			if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			if !isFloat64(p.Info.TypeOf(as.Lhs[0])) {
				return true
			}
			if fn := findStatsCall(p.Info, as.Rhs[0]); fn != nil {
				p.Report(as.Pos(), "NaN-unsafe aggregation: %s may return NaN and poison a float64 accumulator; use a stats.Running", fn.FullName())
			}
			return true
		})
	}
}

func isFloat64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// findStatsCall returns the first function from internal/stats called
// anywhere inside expr, or nil.
func findStatsCall(info *types.Info, expr ast.Expr) *types.Func {
	var found *types.Func
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == statsPath {
			found = fn
			return false
		}
		return true
	})
	return found
}

// calleeFunc resolves the called function through the type info,
// unwrapping selectors and parens; nil for indirect calls, conversions
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// ignoredFile reports whether a parsed file opts out of the build (a
// `//go:build ignore`-style constraint), e.g. testdata generators.
func ignoredFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if strings.HasPrefix(text, "//go:build") && strings.Contains(text, "ignore") {
				return true
			}
			if strings.HasPrefix(text, "// +build") && strings.Contains(text, "ignore") {
				return true
			}
		}
	}
	return false
}
