package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

const telemetryPkgPath = "jobsched/internal/telemetry"

// TelemetryGuardAnalyzer returns the nil-recorder-gate analyzer: every
// call through the telemetry.Recorder interface must be dominated by a
// nil check on the same receiver expression. The nil-recorder fast path
// is a measured property (recorded in BENCH_2.json; benchmark/'s traced
// runs exercise both sides today): tracing disabled costs one branch per
// decision point. An unguarded rec.Record either
// panics on the nil path or forces the caller to keep a non-nil no-op
// recorder alive — both regressions.
//
// Two guard shapes are accepted:
//
//	if rec != nil { … rec.Record(ev) … }        // enclosing if (or a && conjunct)
//	if rec == nil { return } …; rec.Record(ev)  // early return in a preceding statement
//
// The analyzer runs everywhere in internal/ except the telemetry package
// itself, whose internals (e.g. the Multi fan-out over non-nil entries)
// own their invariants.
func TelemetryGuardAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "telemetryguard",
		Doc:  "telemetry.Recorder calls must be dominated by a nil check",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Pkg.Path, []string{"jobsched/internal"}) || pass.Pkg.Path == telemetryPkgPath {
			return
		}
		pass.Pkg.inspectWithStack(func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !pass.Pkg.isRecorderInterface(sel.X) {
				return true
			}
			recv := flattenExpr(sel.X)
			if recv == "" {
				pass.Reportf(call.Pos(), "telemetry.Recorder method called on a non-trivial expression %s: bind it to a variable and nil-check it first", types.ExprString(sel.X))
				return true
			}
			if !nilGuarded(recv, n, stack) {
				pass.Reportf(call.Pos(), "%s.%s is not dominated by a `%s != nil` check: the nil-recorder fast path would panic or force allocation", recv, sel.Sel.Name, recv)
			}
			return true
		})
	}
	return a
}

// isRecorderInterface reports whether e's static type is the
// telemetry.Recorder interface.
func (p *Package) isRecorderInterface(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if obj.Pkg().Path() != telemetryPkgPath || obj.Name() != "Recorder" {
		return false
	}
	_, isIface := named.Underlying().(*types.Interface)
	return isIface
}

// nilGuarded reports whether the node is dominated by a nil check on the
// receiver chain `recv`.
func nilGuarded(recv string, node ast.Node, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			// Guarded when the call sits in the *body* of `if recv != nil`.
			if containsNode(anc.Body, node) {
				for _, c := range conjuncts(anc.Cond) {
					if k, ok := nilComparison(c, token.NEQ); ok && k == recv {
						return true
					}
				}
			}
		case *ast.BlockStmt:
			// Guarded when an earlier statement of the block is
			// `if recv == nil { …terminal… }`.
			idx := -1
			for j, s := range anc.List {
				if containsNode(s, node) {
					idx = j
					break
				}
			}
			for j := 0; j < idx; j++ {
				ifs, ok := anc.List[j].(*ast.IfStmt)
				if !ok || ifs.Else != nil || !terminalBlock(ifs.Body) {
					continue
				}
				if k, ok := nilComparison(ifs.Cond, token.EQL); ok && k == recv {
					return true
				}
			}
		case *ast.FuncLit:
			// A function literal may run long after the guard it is
			// lexically inside was evaluated; require a guard within the
			// literal itself (inner ancestors were already checked).
			if containsNode(anc.Body, node) {
				return false
			}
		}
	}
	return false
}

// containsNode reports whether outer's source range covers inner.
func containsNode(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// terminalBlock reports whether the block's last statement leaves the
// enclosing scope (return/continue/break/goto or panic).
func terminalBlock(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
