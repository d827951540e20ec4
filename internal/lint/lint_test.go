package lint

import (
	"strings"
	"testing"
)

// loadSuppressionFixture loads the suppression corpus under an in-scope
// path and runs the maprange analyzer over it.
func loadSuppressionFixture(t *testing.T) Result {
	t.Helper()
	pkg := loadCorpus(t, "testdata/suppression", "jobsched/internal/sim/fixture")
	analyzers, err := ByName("maprange")
	if err != nil {
		t.Fatal(err)
	}
	return Run([]*Package{pkg}, analyzers)
}

// TestSuppressionMachinery exercises the //lint:ignore rules end to end:
// justified directives (above and trailing) suppress and carry their
// reason; a reason-less directive is rejected and leaves the finding
// active; a directive only covers the analyzers it names; a
// comma-separated list covers several.
func TestSuppressionMachinery(t *testing.T) {
	res := loadSuppressionFixture(t)

	// Suppressed: justifiedAbove, justifiedTrailing, multiName.
	if len(res.Suppressed) != 3 {
		t.Fatalf("suppressed = %d, want 3: %v", len(res.Suppressed), res.Suppressed)
	}
	reasons := map[string]bool{}
	for _, s := range res.Suppressed {
		if s.Analyzer != "maprange" {
			t.Errorf("suppressed analyzer = %q, want maprange", s.Analyzer)
		}
		if s.Reason == "" {
			t.Errorf("suppression at %v lost its reason", s.Pos)
		}
		reasons[s.Reason] = true
	}
	for _, want := range []string{
		"test fixture: order independence argued elsewhere",
		"trailing-comment form",
		"covers both analyzers",
	} {
		if !reasons[want] {
			t.Errorf("missing suppression reason %q (got %v)", want, reasons)
		}
	}

	// Active: missingReason's finding, wrongAnalyzer's finding, and the
	// malformed-directive report itself.
	var malformed, stillActive int
	for _, d := range res.Diagnostics {
		switch d.Analyzer {
		case "lintdirective":
			malformed++
			if !strings.Contains(d.Message, "missing reason") {
				t.Errorf("malformed-directive message = %q", d.Message)
			}
		case "maprange":
			stillActive++
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	if malformed != 1 {
		t.Errorf("lintdirective diagnostics = %d, want 1", malformed)
	}
	if stillActive != 2 {
		t.Errorf("active maprange diagnostics = %d, want 2 (missing-reason and wrong-analyzer sites): %v",
			stillActive, res.Diagnostics)
	}
}

// TestParseIgnoresMalformed pins the directive grammar details.
func TestParseIgnoresMalformed(t *testing.T) {
	pkg := loadCorpus(t, "testdata/suppression", "jobsched/internal/sim/fixture")
	var all []ignoreDirective
	for _, f := range pkg.Files {
		all = append(all, parseIgnores(pkg.Fset, f)...)
	}
	if len(all) != 5 {
		t.Fatalf("parsed %d directives, want 5", len(all))
	}
	var bad int
	for _, d := range all {
		if d.malformed != "" {
			bad++
			continue
		}
		if d.reason == "" || len(d.analyzers) == 0 {
			t.Errorf("well-formed directive at %v missing pieces: %+v", d.pos, d)
		}
	}
	if bad != 1 {
		t.Errorf("malformed directives = %d, want 1", bad)
	}
}

// TestLoadModule loads the real module and sanity-checks package
// identities — the shapes the driver depends on.
func TestLoadModule(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/sim", "./internal/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	paths := map[string]bool{}
	for _, p := range pkgs {
		paths[p.Path] = true
		if len(p.Files) == 0 {
			t.Errorf("%s: no files", p.Path)
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s: not type-checked", p.Path)
		}
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s: test file %s loaded", p.Path, name)
			}
		}
	}
	if !paths["jobsched/internal/sim"] || !paths["jobsched/internal/telemetry"] {
		t.Errorf("unexpected package set: %v", paths)
	}
}

// TestTreeIsClean is the in-process version of the tier-1 gate step:
// the full default suite over the whole module must produce no active
// diagnostics, and every suppression in the tree must carry a reason.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	res := Run(loadModule(t), Analyzers())
	for _, d := range res.Diagnostics {
		t.Errorf("tree not lint-clean: %s", d)
	}
	for _, s := range res.Suppressed {
		if strings.TrimSpace(s.Reason) == "" {
			t.Errorf("suppression without reason at %v", s.Pos)
		}
	}
}

// TestHasPathPrefix pins the scope-matching corner cases.
func TestHasPathPrefix(t *testing.T) {
	cases := []struct {
		path, prefix string
		want         bool
	}{
		{"jobsched/internal/sim", "jobsched/internal/sim", true},
		{"jobsched/internal/sim/fixture", "jobsched/internal/sim", true},
		{"jobsched/internal/simx", "jobsched/internal/sim", false},
		{"jobsched/internal", "jobsched/internal/sim", false},
	}
	for _, c := range cases {
		if got := hasPathPrefix(c.path, c.prefix); got != c.want {
			t.Errorf("hasPathPrefix(%q, %q) = %v, want %v", c.path, c.prefix, got, c.want)
		}
	}
}
