package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// x86Path is the package that declares the opcode enum, x86.Op.
const x86Path = "bhive/internal/x86"

// OpRange flags ordered comparisons (<, <=, >, >=) between an x86.Op and
// an opcode constant. Such a comparison reads a fact ("is VEX", "needs
// AVX2") off the enum's declaration order, which nothing states: an
// opcode inserted in the wrong place silently changes it. The facts live
// in x86's opcode table (Op.Features, Inst.Features, Op.IsVex, ...). Only
// NumOps bounds checks may compare ops; the enum's own const declaration
// is exempt.
var OpRange = &Analyzer{
	Name: "oprange",
	Doc:  "ordered comparisons of an x86.Op against an opcode constant read facts off the enum's order; use the opcode table",
	Run:  runOpRange,
}

func runOpRange(p *Pass) {
	// In x86 itself, the declaration holding NumOps is the enum's.
	var sentinel types.Object
	if p.Pkg.Path() == x86Path {
		sentinel = p.Pkg.Scope().Lookup("NumOps")
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gd, ok := n.(*ast.GenDecl); ok && sentinel != nil && gd.Pos() <= sentinel.Pos() && sentinel.Pos() < gd.End() {
				return false
			}
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.LSS && be.Op != token.LEQ && be.Op != token.GTR && be.Op != token.GEQ) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				if tv := p.Info.Types[side]; tv.Value != nil && types.TypeString(tv.Type, nil) == x86Path+".Op" && !isNumOps(p.Info, side) {
					p.Report(be.Pos(), "ordered comparison of an x86.Op with %s reads a fact off the enum's order; ask the opcode table (x86.Op/x86.Inst methods) instead", types.ExprString(side))
					break
				}
			}
			return true
		})
	}
}

// isNumOps reports whether expr names the enum's NumOps sentinel.
func isNumOps(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e] != nil && info.Uses[e].Name() == "NumOps"
	case *ast.SelectorExpr:
		return isNumOps(info, e.Sel)
	}
	return false
}
