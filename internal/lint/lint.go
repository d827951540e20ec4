// Package lint is jobsched's repo-specific static-analysis framework.
//
// The paper's evaluation methodology (Sections 2–4) is only sound if the
// simulation is a deterministic, replayable function of the workload:
// Tables 1–8 compare algorithm families, so nothing in the pipeline may
// depend on wall-clock time, map iteration order, or unseeded
// randomness. Those invariants used to be a social contract enforced by
// review; this package makes them machine-checked. It is built on the
// standard library only (go/parser, go/types, go/importer — no
// golang.org/x/tools dependency) so the gate runs on a bare toolchain.
//
// A lint run loads every package of the module (see Load), runs each
// registered Analyzer over the typed syntax trees, and splits the raw
// findings into active diagnostics and suppressed ones. A finding is
// suppressed by an explicit, justified directive placed on the flagged
// line or on the line directly above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory — a directive without one is itself reported
// (analyzer name "lintdirective") — and suppressions are budgeted by
// scripts/lint-budget.sh so they cannot accrete silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer, positioned in the source.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Suppressed is a finding neutralized by a //lint:ignore directive; the
// justification travels with it so reports and budgets can show it.
type Suppressed struct {
	Diagnostic
	Reason string `json:"reason"`
}

// Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	// Name is the identifier used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) reporting context.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of a lint run.
type Result struct {
	// Diagnostics are the active findings, sorted by position.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Suppressed are findings neutralized by a justified ignore
	// directive, sorted by position.
	Suppressed []Suppressed `json:"suppressed"`
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool
	reason    string
	malformed string // non-empty: why the directive is invalid
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts the ignore directives of one file, keyed by the
// source line they apply to. A directive on line L covers findings on
// line L (trailing comment) and line L+1 (comment above the statement).
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			d := ignoreDirective{pos: fset.Position(c.Pos())}
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ignoreXYZ — not our directive
			}
			fields := strings.Fields(rest)
			switch {
			case len(fields) == 0:
				d.malformed = "missing analyzer name and reason"
			case len(fields) == 1:
				d.malformed = fmt.Sprintf("missing reason after analyzer %q (suppressions must be justified)", fields[0])
			default:
				d.analyzers = map[string]bool{}
				for _, a := range strings.Split(fields[0], ",") {
					d.analyzers[a] = true
				}
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// Run executes the analyzers over the packages and applies suppression.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var res Result
	for _, pkg := range pkgs {
		// Collect this package's directives: (file, line) -> directive.
		type lineKey struct {
			file string
			line int
		}
		directives := map[lineKey]*ignoreDirective{}
		for _, f := range pkg.Files {
			for _, d := range parseIgnores(pkg.Fset, f) {
				d := d
				if d.malformed != "" {
					res.Diagnostics = append(res.Diagnostics, Diagnostic{
						Analyzer: "lintdirective",
						Pos:      d.pos,
						Message:  "malformed //lint:ignore directive: " + d.malformed,
					})
					continue
				}
				directives[lineKey{d.pos.Filename, d.pos.Line}] = &d
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, diag := range pass.diags {
				var dir *ignoreDirective
				// Same line (trailing comment) or the line above.
				if d, ok := directives[lineKey{diag.Pos.Filename, diag.Pos.Line}]; ok && d.analyzers[a.Name] {
					dir = d
				} else if d, ok := directives[lineKey{diag.Pos.Filename, diag.Pos.Line - 1}]; ok && d.analyzers[a.Name] {
					dir = d
				}
				if dir != nil {
					res.Suppressed = append(res.Suppressed, Suppressed{Diagnostic: diag, Reason: dir.reason})
				} else {
					res.Diagnostics = append(res.Diagnostics, diag)
				}
			}
		}
	}
	sortDiags(res.Diagnostics)
	sort.Slice(res.Suppressed, func(i, j int) bool {
		return lessPos(res.Suppressed[i].Diagnostic, res.Suppressed[j].Diagnostic)
	})
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool { return lessPos(ds[i], ds[j]) })
}

func lessPos(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}

// Analyzers returns the full default analyzer suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRangeAnalyzer(),
		WallclockAnalyzer(),
		TelemetryGuardAnalyzer(),
		CheckedArithAnalyzer(),
		SimPurityAnalyzer(),
		StreamContractAnalyzer(),
		JournalSyncAnalyzer(),
		ErrFlowAnalyzer(),
	}
}

// ByName returns the named analyzers from the default suite, in the
// given order.
func ByName(names ...string) ([]*Analyzer, error) {
	all := Analyzers()
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}
