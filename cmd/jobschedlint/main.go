// Command jobschedlint runs jobsched's repo-specific static-analysis
// suite (internal/lint): the determinism (maprange), wallclock-hygiene,
// telemetry-guard, checked-arithmetic and sim-purity analyzers, plus the
// protocol-aware contract analyzers — streamcontract (Source.Next
// sentinel handling, bounded job retention), journalsync (fsync after
// write and before rename) and errflow (no silently dropped errors in
// the core layers). Together they
// mechanically enforce the invariants the paper's evaluation methodology
// assumes (replayable simulations, order-independent results, crash-safe
// evaluation). The wallclock and simpurity checks propagate transitively
// over each package's call graph, so wrapping a violation in a helper
// moves the diagnostic instead of silencing it.
//
// Usage:
//
//	jobschedlint [flags] [patterns]
//
// Patterns default to ./... (the whole module). Exit status: 0 when the
// tree is clean, 1 on findings, 2 on usage or load errors.
//
// Flags:
//
//	-json          machine-readable report (findings, suppressions, counts)
//	-suppressions  one "analyzer path reason" line per suppression (budget input)
//	-list          list the analyzers and the invariant each enforces
//	-analyzers a,b run only the named analyzers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"jobsched/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("jobschedlint", flag.ContinueOnError)
	var (
		jsonOut      = fs.Bool("json", false, "emit a JSON report")
		suppressions = fs.Bool("suppressions", false, "list suppressed findings, one 'analyzer path reason' per line")
		list         = fs.Bool("list", false, "list analyzers and exit")
		only         = fs.String("analyzers", "", "comma-separated subset of analyzers to run")
	)
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ",")...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	patterns := fs.Args()
	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	res := lint.Run(pkgs, analyzers)
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}

	switch {
	case *jsonOut:
		report := struct {
			Diagnostics      []lint.Diagnostic `json:"diagnostics"`
			Suppressed       []lint.Suppressed `json:"suppressed"`
			DiagnosticTotal  int               `json:"diagnostic_total"`
			SuppressedTotal  int               `json:"suppressed_total"`
			PackagesAnalyzed int               `json:"packages_analyzed"`
		}{
			Diagnostics:      relativized(res.Diagnostics, rel),
			Suppressed:       relativizedSup(res.Suppressed, rel),
			DiagnosticTotal:  len(res.Diagnostics),
			SuppressedTotal:  len(res.Suppressed),
			PackagesAnalyzed: len(pkgs),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	case *suppressions:
		for _, s := range res.Suppressed {
			fmt.Printf("%s %s %s\n", s.Analyzer, rel(s.Pos.Filename), s.Reason)
		}
	default:
		for _, d := range res.Diagnostics {
			fmt.Printf("%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		if n := len(res.Diagnostics); n > 0 {
			fmt.Fprintf(os.Stderr, "jobschedlint: %d finding(s) in %d package(s)\n", n, len(pkgs))
		}
	}

	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

func relativized(ds []lint.Diagnostic, rel func(string) string) []lint.Diagnostic {
	out := make([]lint.Diagnostic, len(ds))
	for i, d := range ds {
		d.Pos.Filename = rel(d.Pos.Filename)
		out[i] = d
	}
	return out
}

func relativizedSup(ss []lint.Suppressed, rel func(string) string) []lint.Suppressed {
	out := make([]lint.Suppressed, len(ss))
	for i, s := range ss {
		s.Pos.Filename = rel(s.Pos.Filename)
		out[i] = s
	}
	return out
}
