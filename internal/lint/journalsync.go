package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// journalSyncScope: the evaluation layer owns the crash-safe journal and
// the rendered result files, and the service layer owns the session WAL
// and snapshots; durability discipline is enforced in both.
var journalSyncScope = []string{
	"jobsched/internal/eval",
	"jobsched/internal/serve",
}

// JournalSyncAnalyzer returns the journal-durability analyzer. The
// journal's crash-safety argument (DESIGN §10) rests on two write
// disciplines that nothing in the type system enforces:
//
//   - every (*os.File).Write/WriteString is followed by a Sync on the
//     same file in the same function — an unsynced append can vanish in
//     a crash after the cell was reported complete, silently dropping
//     work on resume;
//   - os.Rename publishes a file only after its content is on disk: the
//     rename must be preceded (in the same function) by an fsync —
//     directly, or through a package-local call that transitively
//     reaches (*os.File).Sync (e.g. Journal.Record, which syncs every
//     line).
//
// That the journal holds only successful cells is not a lint rule:
// eval.Journal.Record refuses a cell whose Err is set.
func JournalSyncAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "journalsync",
		Doc:  "journal durability: fsync after write and before rename",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Pkg.Path, journalSyncScope) {
			return
		}
		checkWriteSync(pass)
		checkRenameSync(pass)
	}
	return a
}

// isOSFile reports whether t is *os.File.
func isOSFile(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}

// osFileMethodCall reports whether the call invokes the named method on
// an *os.File value, returning the receiver chain key.
func (p *Package) osFileMethodCall(call *ast.CallExpr, name string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return "", false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || !isOSFile(tv.Type) {
		return "", false
	}
	return flattenExpr(sel.X), true
}

// checkWriteSync flags (*os.File).Write/WriteString calls with no later
// Sync on the same receiver chain in the same function.
func checkWriteSync(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Last Sync position per receiver chain.
			syncAfter := map[string]token.Pos{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if recv, ok := pass.Pkg.osFileMethodCall(call, "Sync"); ok && recv != "" {
					if call.Pos() > syncAfter[recv] {
						syncAfter[recv] = call.Pos()
					}
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, name := range []string{"Write", "WriteString"} {
					recv, ok := pass.Pkg.osFileMethodCall(call, name)
					if !ok {
						continue
					}
					if recv == "" || syncAfter[recv] < call.Pos() {
						pass.Reportf(call.Pos(), "%s on %q without a later %s.Sync() in this function: an unsynced journal write can vanish in a crash after the cell was reported complete", name, recv, recv)
					}
				}
				return true
			})
		}
	}
}

// syncReachers computes, over the package-local call graph, the set of
// declared functions that directly or transitively call (*os.File).Sync.
func syncReachers(pass *Pass, g *callGraph) map[*types.Func]bool {
	reaches := map[*types.Func]bool{}
	for _, fn := range g.order {
		ast.Inspect(g.decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, isSync := pass.Pkg.osFileMethodCall(call, "Sync"); isSync {
				reaches[fn] = true
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.order {
			if reaches[fn] {
				continue
			}
			for _, cs := range g.calls[fn] {
				if reaches[cs.callee] {
					reaches[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return reaches
}

// checkRenameSync flags os.Rename calls not preceded (in the same
// function) by an fsync — a direct (*os.File).Sync, or a package-local
// call that transitively reaches one.
func checkRenameSync(pass *Pass) {
	g := pass.Pkg.buildCallGraph()
	reaches := syncReachers(pass, g)
	for _, fn := range g.order {
		var lastSync token.Pos
		ast.Inspect(g.decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, isSync := pass.Pkg.osFileMethodCall(call, "Sync"); isSync {
				if call.Pos() > lastSync {
					lastSync = call.Pos()
				}
				return true
			}
			callee := pass.Pkg.calleeFunc(call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if callee.Pkg() == pass.Pkg.Types && reaches[callee] {
				if call.Pos() > lastSync {
					lastSync = call.Pos()
				}
				return true
			}
			if callee.Pkg().Path() == "os" && callee.Name() == "Rename" {
				if lastSync == token.NoPos || lastSync > call.Pos() {
					pass.Reportf(call.Pos(), "os.Rename without a preceding fsync in this function: rename publishes the file name before its content is durable; Sync the temp file (directly or via a syncing helper) first")
				}
			}
			return true
		})
	}
}
