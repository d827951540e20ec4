package lint

import (
	"fmt"
	"sort"
	"testing"
)

// renderResult serializes a Result into a canonical string so two runs
// can be compared byte for byte.
func renderResult(res Result) string {
	out := ""
	for _, d := range res.Diagnostics {
		out += fmt.Sprintf("D %s %s:%d:%d %s\n", d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
	}
	for _, s := range res.Suppressed {
		out += fmt.Sprintf("S %s %s:%d:%d %s\n", s.Analyzer, s.Pos.Filename, s.Pos.Line, s.Pos.Column, s.Reason)
	}
	return out
}

// requireSorted asserts the diagnostics arrive in the driver's
// documented order (file, line, column, analyzer).
func requireSorted(t *testing.T, label string, ds []Diagnostic) {
	t.Helper()
	if !sort.SliceIsSorted(ds, func(i, j int) bool { return lessPos(ds[i], ds[j]) }) {
		t.Errorf("%s: diagnostics not sorted", label)
	}
}

// TestDriverRobustness is the whole-framework smoke test: the full
// analyzer suite over the entire module and over every corpus fixture
// must complete without panicking, produce sorted output, and produce
// the same output on a second run over the same loaded packages — the
// call-graph propagation, the suppression machinery, and every analyzer
// walk must be deterministic, because the tier-1 gate diffs this output.
func TestDriverRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}

	pkgs := loadModule(t)
	if len(pkgs) == 0 {
		t.Fatal("module load returned no packages")
	}

	first := Run(pkgs, Analyzers())
	requireSorted(t, "module run 1", first.Diagnostics)
	second := Run(pkgs, Analyzers())
	requireSorted(t, "module run 2", second.Diagnostics)
	if a, b := renderResult(first), renderResult(second); a != b {
		t.Errorf("module analysis is not deterministic across runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}

	// Every corpus fixture, under its in-scope path, against the FULL
	// suite — not just its own analyzer. Cross-analyzer walks over
	// adversarial fixtures are where panics hide (nil type info, wanted
	// diagnostics from one analyzer tripping another's assumptions).
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadCorpus(t, tc.dir, tc.importPath)
			one := Run([]*Package{pkg}, Analyzers())
			requireSorted(t, tc.dir, one.Diagnostics)
			two := Run([]*Package{pkg}, Analyzers())
			if a, b := renderResult(one), renderResult(two); a != b {
				t.Errorf("corpus analysis not deterministic:\n--- run 1\n%s--- run 2\n%s", a, b)
			}
		})
	}
}
