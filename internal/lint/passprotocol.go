package lint

import (
	"go/ast"
	"go/types"
)

// passProtocolScope: the packages that drive profile kernels through the
// batched scheduling pass API (PR 6's BeginPass/StartMany/CommitPass
// protocol). internal/profile itself — where the kernels live — is
// deliberately out of scope: it owns the pass state and manipulates it
// below the protocol.
var passProtocolScope = []string{
	"jobsched/internal/sched",
	"jobsched/internal/sim",
	"jobsched/internal/eval",
}

const profilePkgPath = "jobsched/internal/profile"

// passClobberMethods are the kernel operations that must not run between
// BeginPass and CommitPass: they discard or re-anchor the pass state
// (Reset and CloneInto zero the in-pass flag; a nested BeginPass drops
// the deferred coalescing queue), leaving a Tree kernel permanently
// non-canonical. Reserve/Release/EarliestFit remain legal mid-pass —
// they are exactly what StartMany performs — so this is not a blanket
// mutation ban but the protocol's safety boundary.
var passClobberMethods = map[string]string{
	"Reset":     "reinitializes the kernel and silently discards the open pass",
	"BeginPass": "re-opens the pass and drops the deferred coalescing queue of the first",
	"CloneInto": "copies kernel state while its canonical form is relaxed",
}

// isKernelMethod reports whether the call invokes the named method on a
// profile kernel (the Kernel interface or any of the implementations —
// every method declared in internal/profile), returning the receiver
// chain key.
func isKernelMethod(p *Package, call *ast.CallExpr, name string) (recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != name {
		return "", false
	}
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !hasPathPrefix(fn.Pkg().Path(), profilePkgPath) {
		return "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() == nil {
		return "", false
	}
	return flattenExpr(sel.X), true
}

// PassProtocolAnalyzer returns the batch-pass contract analyzer. The
// kernel pass protocol is three calls — BeginPass(now), StartMany or the
// equivalent EarliestFit+Reserve loop, CommitPass() — and the Tree
// kernel defers reservation-edge coalescing for the whole pass, so a
// pass that never commits leaves the profile permanently non-canonical:
// every later query runs against a relaxed step function and the
// byte-identical-tables guarantee is gone. The analyzer enforces, per
// function:
//
//   - every BeginPass is paired with a CommitPass on the same receiver
//     in the same enclosing block (or an immediately-deferred
//     CommitPass), so the pass cannot leak out of the frame that opened
//     it;
//   - no return statement sits between BeginPass and CommitPass (an
//     early return would leave the pass open) unless the CommitPass is
//     deferred;
//   - no pass-clobbering operation (Reset, nested BeginPass, CloneInto)
//     runs on the receiver mid-pass;
//   - CommitPass never appears without a BeginPass on the same receiver
//     in the same function — the pass opens and closes in one frame.
func PassProtocolAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "passprotocol",
		Doc:  "kernel batch passes must open and close in one frame: BeginPass paired with CommitPass on all paths, no mid-pass clobbering",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Pkg.Path, passProtocolScope) {
			return
		}
		g := pass.Pkg.buildCallGraph()
		for _, fn := range g.order {
			checkPassProtocol(pass, g.decls[fn].Body)
		}
	}
	return a
}

// passCall is one pass-protocol-relevant call found in a statement.
type passCall struct {
	call *ast.CallExpr
	recv string
	name string
}

// findPassCalls collects the pass-protocol calls in a node's subtree, in
// source order. Deferred calls are reported with name "defer:"+method.
func findPassCalls(p *Package, root ast.Node) []passCall {
	var out []passCall
	names := []string{"BeginPass", "CommitPass", "Reset", "CloneInto"}
	ast.Inspect(root, func(n ast.Node) bool {
		deferred := false
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred, call = true, n.Call
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		for _, name := range names {
			if recv, ok := isKernelMethod(p, call, name); ok {
				if deferred {
					name = "defer:" + name
				}
				out = append(out, passCall{call: call, recv: recv, name: name})
				break
			}
		}
		return !deferred // the DeferStmt's call was classified already
	})
	return out
}

// checkPassProtocol walks every block of the function body and audits
// each BeginPass found there against the pairing rules.
func checkPassProtocol(pass *Pass, body *ast.BlockStmt) {
	all := findPassCalls(pass.Pkg, body)
	if len(all) == 0 {
		return
	}

	// Rule: CommitPass (non-deferred) requires a BeginPass on the same
	// receiver somewhere in the function — the pass opens and closes in
	// one frame, never split across helpers.
	begins := map[string]bool{}
	for _, c := range all {
		if c.name == "BeginPass" {
			begins[c.recv] = true
		}
	}
	for _, c := range all {
		if (c.name == "CommitPass" || c.name == "defer:CommitPass") && !begins[c.recv] {
			pass.Reportf(c.call.Pos(), "%s.CommitPass without a BeginPass on %s in this function: the pass protocol opens and closes in one frame", c.recv, c.recv)
		}
	}

	// Audit each BeginPass in its enclosing block.
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			recv, ok := beginPassStmt(pass.Pkg, stmt)
			if !ok {
				continue
			}
			auditPass(pass, block.List[i+1:], stmt, recv)
		}
		return true
	})
}

// beginPassStmt reports whether the statement is a direct
// `recv.BeginPass(now)` call statement.
func beginPassStmt(p *Package, stmt ast.Stmt) (string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	return isKernelMethod(p, call, "BeginPass")
}

// auditPass checks the statements following a BeginPass in its block:
// the pass must be committed (a later CommitPass on the same receiver in
// the same block, or an immediately-following deferred CommitPass), no
// return may interleave unless the commit is deferred, and no
// pass-clobbering kernel call may run mid-pass.
func auditPass(pass *Pass, rest []ast.Stmt, begin ast.Stmt, recv string) {
	// An immediately-following `defer recv.CommitPass()` covers every
	// exit path, early returns included.
	if len(rest) > 0 {
		if ds, ok := rest[0].(*ast.DeferStmt); ok {
			if r, ok := isKernelMethod(pass.Pkg, ds.Call, "CommitPass"); ok && r == recv {
				return
			}
		}
	}

	for _, stmt := range rest {
		// Does this statement commit the pass at its own statement level?
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if r, ok := isKernelMethod(pass.Pkg, call, "CommitPass"); ok && r == recv {
					return // pass closed; the audit of the span below already ran
				}
			}
		}
		// Mid-pass statements: no escapes, no clobbering.
		bad := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				pass.Reportf(n.Pos(), "return between %s.BeginPass and %s.CommitPass leaves the pass open (deferred coalescing never replays): commit before returning or defer the commit", recv, recv)
			case *ast.FuncLit:
				return false // a literal's body runs elsewhere in time
			case *ast.CallExpr:
				for _, name := range []string{"Reset", "BeginPass", "CloneInto"} {
					if r, ok := isKernelMethod(pass.Pkg, n, name); ok && r == recv {
						pass.Reportf(n.Pos(), "%s.%s between BeginPass and CommitPass %s: close the pass first", recv, name, passClobberMethods[name])
						bad = true
					}
				}
				// A nested conditional CommitPass closes the pass on some
				// paths only; treat it as closing for audit purposes to
				// avoid cascading reports.
				if r, ok := isKernelMethod(pass.Pkg, n, "CommitPass"); ok && r == recv {
					bad = true
				}
			}
			return true
		})
		if bad {
			return
		}
	}
	pass.Reportf(begin.Pos(), "%s.BeginPass is never committed in this block: pair it with %s.CommitPass (or defer the commit immediately) so the kernel's canonical form is restored on every path", recv, recv)
}
