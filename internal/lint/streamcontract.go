package lint

import (
	"go/ast"
	"go/types"
)

// streamContractScope: everything that produces or consumes streaming
// arrivals — the engine itself, the trace readers that implement Source,
// and the CLI/eval drivers that wire them together.
var streamContractScope = []string{
	"jobsched/internal",
	"jobsched/cmd",
}

const (
	jobPkgPath = "jobsched/internal/job"
	simPkgPath = "jobsched/internal/sim"
)

// StreamContractAnalyzer returns the streaming-protocol analyzer. The
// sim.Source contract has two load-bearing conventions that the type
// system cannot express, and each has a cheap syntactic witness:
//
//   - Next returns (nil, nil) as the done sentinel. A caller that never
//     compares the returned *job.Job against nil will dereference the
//     sentinel on the first exhausted source; every Next call site must
//     have a nil check on the job result (and must not blank the error).
//   - Streaming exists to bound memory: RunStream holds O(batch), not
//     O(jobs). Growing a []*job.Job inside internal/sim without a
//     same-function x = x[:0] reset reintroduces the O(jobs) footprint
//     the mode was built to avoid.
//
// Combining Options.Sink with Options.Validate is not a lint rule: the
// engine refuses the pair on entry, so the first cell of a run fails.
func StreamContractAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "streamcontract",
		Doc:  "streaming protocol: handle Source.Next's nil-job done sentinel, no unbounded job-slice growth in the engine",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Pkg.Path, streamContractScope) {
			return
		}
		checkNextSentinel(pass)
		if pass.Pkg.Path == simPkgPath {
			checkJobRetention(pass)
		}
	}
	return a
}

// isJobPtr reports whether t is *jobsched/internal/job.Job.
func isJobPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == jobPkgPath && obj.Name() == "Job"
}

// isErrorType reports whether t is the universe error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// sourceNextCall reports whether the call invokes a method named Next
// whose results are exactly (*job.Job, error) — the sim.Source shape,
// whatever concrete source implements it.
func (p *Package) sourceNextCall(call *ast.CallExpr) bool {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Name() != "Next" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 2 {
		return false
	}
	return isJobPtr(sig.Results().At(0).Type()) && isErrorType(sig.Results().At(1).Type())
}

// checkNextSentinel flags Source.Next call sites whose job result is
// never nil-checked in the enclosing function, and error results blanked
// with _.
func checkNextSentinel(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Collect the idents nil-compared anywhere in the function.
			nilChecked := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				if key, ok := nilComparison(b, b.Op); ok {
					nilChecked[key] = true
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
					return true
				}
				call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok || !pass.Pkg.sourceNextCall(call) {
					return true
				}
				jobKey := flattenExpr(as.Lhs[0])
				errKey := flattenExpr(as.Lhs[1])
				if errKey == "_" {
					pass.Reportf(as.Lhs[1].Pos(), "Source.Next error discarded with _: a failed decode mid-stream must stop the run, not masquerade as end-of-stream")
				}
				switch {
				case jobKey == "_":
					pass.Reportf(as.Lhs[0].Pos(), "Source.Next job result discarded with _: the nil job IS the done sentinel; dropping it makes the stream end undetectable")
				case !nilChecked[jobKey]:
					pass.Reportf(call.Pos(), "Source.Next result %q is never nil-checked in this function: Next returns (nil, nil) as the done sentinel, and the first exhausted source will be dereferenced", jobKey)
				}
				return true
			})
		}
	}
}

// checkJobRetention flags append calls growing a []*job.Job inside
// internal/sim when the enclosing function never resets the slice with
// x = x[:0]. The engine's batch buffer is the sanctioned pattern:
// appended to per batch, truncated before the next.
func checkJobRetention(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Collect slice keys reset via x = x[:0] in this function.
			resets := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				sl, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr)
				if !ok || sl.Low != nil || sl.High == nil {
					return true
				}
				if lit, ok := sl.High.(*ast.BasicLit); !ok || lit.Value != "0" {
					return true
				}
				key := flattenExpr(as.Lhs[0])
				if key != "" && key == flattenExpr(sl.X) {
					resets[key] = true
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" || len(call.Args) == 0 {
					return true
				}
				if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				tv, ok := pass.Pkg.Info.Types[call.Args[0]]
				if !ok {
					return true
				}
				sl, ok := tv.Type.Underlying().(*types.Slice)
				if !ok || !isJobPtr(sl.Elem()) {
					return true
				}
				key := flattenExpr(call.Args[0])
				if key == "" || resets[key] {
					return true
				}
				pass.Reportf(call.Pos(), "append grows job slice %q without a %s = %s[:0] reset in this function: RunStream exists to hold O(batch) jobs, not O(stream)", key, key, key)
				return true
			})
		}
	}
}
