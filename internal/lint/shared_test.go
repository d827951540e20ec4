package lint

import (
	"sync"
	"testing"
)

// Loading and type-checking dominates this package's test time, and
// several tests analyze the same inputs, so each input is loaded once
// per test binary and shared. Run only reads its packages, and
// TestDriverRobustness checks that two runs over the same loaded
// packages agree.

// module holds the one whole-module load.
var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule returns the packages of the whole module, loading them on
// first use.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	module.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			module.err = err
			return
		}
		module.pkgs, module.err = Load(root)
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
}

// corpusKey names one fixture directory loaded under one import path.
type corpusKey struct{ dir, importPath string }

// corpus holds the loaded fixtures. No test here calls t.Parallel, so
// the map needs no lock.
var corpus = map[corpusKey]*Package{}

// loadCorpus returns the fixture dir type-checked as importPath, loading
// each (dir, importPath) pair on first use.
func loadCorpus(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	k := corpusKey{dir, importPath}
	if pkg, ok := corpus[k]; ok {
		return pkg
	}
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading corpus %s as %s: %v", dir, importPath, err)
	}
	corpus[k] = pkg
	return pkg
}
