package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// inspectWithStack walks every file of the package, calling fn with each
// node and the stack of its ancestors (outermost first, not including
// the node itself). Returning false prunes the subtree.
func (p *Package) inspectWithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			desc := fn(n, stack)
			if desc {
				stack = append(stack, n)
			}
			return desc
		})
	}
}

// flattenExpr renders an ident/selector chain ("s.rec", "opt.Recorder")
// as a stable string key, or "" if the expression is not a pure chain
// (calls, indexing, …). Parens are looked through.
func flattenExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return flattenExpr(e.X)
	case *ast.SelectorExpr:
		base := flattenExpr(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// conjuncts splits a condition on && (through parens).
func conjuncts(e ast.Expr) []ast.Expr {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return conjuncts(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return append(conjuncts(e.X), conjuncts(e.Y)...)
		}
	}
	return []ast.Expr{e}
}

// nilComparison reports whether e is `<chain> op nil` (either operand
// order) and returns the chain's flattened key.
func nilComparison(e ast.Expr, op token.Token) (string, bool) {
	b, ok := e.(*ast.BinaryExpr)
	if !ok || b.Op != op {
		return "", false
	}
	if isNilIdent(b.Y) {
		if k := flattenExpr(b.X); k != "" {
			return k, true
		}
	}
	if isNilIdent(b.X) {
		if k := flattenExpr(b.Y); k != "" {
			return k, true
		}
	}
	return "", false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function, method, or interface method), or nil.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// isInt64 reports whether t's core type is exactly int64.
func isInt64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// isDuration reports whether t is exactly time.Duration. Duration's core
// type is int64, so it passes isInt64 — but Duration values are CPU-time
// bookkeeping (nanoseconds since a measurement started), not simulation
// times, and overflow there needs 292 years of wall clock.
func isDuration(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Duration"
}

// enclosingFuncName returns the name of the innermost enclosing function
// declaration on the stack ("" inside a function literal or at file
// scope).
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return ""
		case *ast.FuncDecl:
			return n.Name.Name
		}
	}
	return ""
}

// processStream reports whether e denotes os.Stdout or os.Stderr (the
// package-level vars of the real os package, not a shadowing local) and
// returns its printable name.
func (p *Package) processStream(e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "os" {
		return "", false
	}
	if sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr" {
		return "os." + sel.Sel.Name, true
	}
	return "", false
}

// baseFilename returns the basename of the file holding pos.
func (p *Package) baseFilename(pos token.Pos) string {
	name := p.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
