package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// verdict compares one metric of two reports under the benchmark's own
// rule: the change's median may be worse than the parent's by at most
// the bound; where the run-to-run spread is wider than the bound the
// metric is unresolved, not unchanged, unless every sample of one side
// reads better than every sample of the other.
func verdict(a, b summary, better string, bound float64) (ratio float64, v string) {
	if a.Value == 0 && b.Value == 0 {
		return 1, "ok" // counts of things that did not happen
	}
	if a.Value == 0 {
		return 0, "unresolved"
	}
	ratio = b.Value / a.Value
	worse := ratio - 1 // share by which b is worse than a
	if better == "higher" {
		worse = 1 - ratio
	}
	ordered := strictlyOrdered(a.Samples, b.Samples)
	if !ordered && (a.spread() > bound || b.spread() > bound) {
		return ratio, "unresolved"
	}
	if worse > bound {
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// strictlyOrdered reports whether every sample of one side lies on the
// same side of every sample of the other.
func strictlyOrdered(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return maxA < minB || maxB < minA
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints, per workload and metric, both medians with their
// quartiles, the ratio, the bound and the verdict. It exits 1 when any
// end-to-end metric regressed or is unresolved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	a, err := readReport(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return fail(err)
	}
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	bad := 0
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil || ra.Traced != rb.Traced {
			continue
		}
		fmt.Fprintf(stdout, "\n%s\n  %-34s %12s %22s %12s %22s %7s %6s  %s\n", ra.Workload,
			"metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "bound", "verdict")
		row := func(name, better string, bound float64, sa, sb summary, gate bool) {
			ratio, v := verdict(sa, sb, better, bound)
			if gate && v != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "  %-34s %12.6g %10.5g..%-10.5g %12.6g %10.5g..%-10.5g %7.3f %6.2f  %s\n",
				name, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, ratio, bound, v)
		}
		for _, m := range spec.active(ra.Traced) {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			// Layer metrics have no bound of their own; they are shown
			// against the widest one and never gate.
			bound, gate := 0.5, false
			if m.Bound != nil {
				bound, gate = *m.Bound, true
			}
			row(m.Name, m.Better, bound, sa, sb, gate)
		}
		var detail []string
		for k := range ra.Detail {
			if _, ok := rb.Detail[k]; ok {
				detail = append(detail, k)
			}
		}
		sort.Strings(detail)
		for _, k := range detail {
			row(k, "lower", 0.5, ra.Detail[k], rb.Detail[k], false)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d end-to-end metric(s) regressed or unresolved\n", bad)
		return 1
	}
	fmt.Fprintf(stdout, "\nevery end-to-end metric within its bound\n")
	return 0
}
