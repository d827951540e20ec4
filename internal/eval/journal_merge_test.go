package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regression: a failed merge must leave an existing journal at dst
// untouched. MergeJournals used to open dst with truncation before
// reading could fail, so merging a corrupt source destroyed the good
// journal it was meant to replace. The merge now writes a temp file and
// renames it over dst only on success.
func TestMergeJournalsFailureLeavesDstIntact(t *testing.T) {
	dir := t.TempDir()

	dst := filepath.Join(dir, "merged.jsonl")
	j, err := OpenJournal(dst, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("precious", Unweighted, Cell{Order: "FCFS", Start: "EASY", Value: 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}

	// A source whose record parses but carries an unknown case name: the
	// merge fails only after it has started writing output.
	bad := filepath.Join(dir, "bad.jsonl")
	line := `{"grid":"g","case":"no-such-case","order":"FCFS","start":"EASY","value":1}` + "\n"
	if err := os.WriteFile(bad, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}

	err = MergeJournals(dst, bad)
	if err == nil || !strings.Contains(err.Error(), "unknown case") {
		t.Fatalf("merge of corrupt source: got %v, want unknown-case error", err)
	}
	after, readErr := os.ReadFile(dst)
	if readErr != nil {
		t.Fatalf("dst journal gone after failed merge: %v", readErr)
	}
	if string(after) != string(before) {
		t.Fatalf("failed merge rewrote dst:\nbefore: %q\nafter:  %q", before, after)
	}

	// No temp litter left behind.
	matches, err := filepath.Glob(dst + "*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("failed merge left temp files: %v", matches)
	}
}

// A successful merge replaces dst atomically and the result is a normal
// resumable journal.
func TestMergeJournalsReplacesDst(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	j, err := OpenJournal(src, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("g", Weighted, Cell{Order: "PSRS", Start: "LIST", Value: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "out.jsonl")
	if err := os.WriteFile(dst, []byte("stale content, not even a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MergeJournals(dst, src); err != nil {
		t.Fatal(err)
	}
	merged, err := OpenJournal(dst, true)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if _, ok := merged.Lookup("g", Weighted, "PSRS", "LIST"); !ok {
		t.Error("merged journal lost the source cell")
	}
}

// The merged bytes do not depend on the order cells were journaled in
// (a parallel grid appends them as they finish) nor on the order the
// sources are named in.
func TestMergeJournalsIndependentOfLineOrder(t *testing.T) {
	dir := t.TempDir()
	cells := []struct {
		grid string
		c    Case
		cell Cell
	}{
		{"g1", Unweighted, Cell{Order: "FCFS", Start: "EASY", Value: 1, MaxQueue: 3}},
		{"g1", Weighted, Cell{Order: "FCFS", Start: "EASY", Value: 2}},
		{"g1", Unweighted, Cell{Order: "PSRS", Start: "List", Value: 3.5, Makespan: 40}},
		{"g2", Unweighted, Cell{Order: "FCFS", Start: "Backfilling", Value: 4, Utilization: 0.25}},
		{"g0", Weighted, Cell{Order: "SMART-FFIA", Start: "EASY", Value: 5}},
	}
	write := func(name string, perm []int) string {
		path := filepath.Join(dir, name)
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Stamp(0xfeed); err != nil {
			t.Fatal(err)
		}
		for _, i := range perm {
			if err := j.Record(cells[i].grid, cells[i].c, cells[i].cell); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", []int{0, 1, 2, 3, 4})
	b := write("b.jsonl", []int{4, 2, 0, 3, 1})
	merge := func(name string, srcs ...string) []byte {
		dst := filepath.Join(dir, name)
		if err := MergeJournals(dst, srcs...); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := merge("ab.jsonl", a, b)
	for _, m := range []struct {
		name string
		srcs []string
	}{{"ba.jsonl", []string{b, a}}, {"a-only.jsonl", []string{a}}, {"b-only.jsonl", []string{b}}} {
		if got := merge(m.name, m.srcs...); string(got) != string(want) {
			t.Errorf("merge into %s:\n%s\ndiffers from the merge of a, b:\n%s", m.name, got, want)
		}
	}
	if n := strings.Count(string(want), "\n"); n != 1+len(cells) {
		t.Errorf("merged journal has %d lines, want the stamp and %d cells:\n%s", n, len(cells), want)
	}
}
