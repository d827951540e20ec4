package eval

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Record refuses a failed cell: resume trusts journaled cells and never
// re-runs them, so a journaled failure would stick.
func TestJournalRecordRefusesFailedCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	err = j.Record("g", Unweighted, Cell{Order: "FCFS", Start: "EASY", Err: "simulate: boom"})
	if err == nil || !strings.Contains(err.Error(), "only successful cells") {
		t.Fatalf("Record of a failed cell: err = %v, want a refusal", err)
	}
	if j.Completed() != 0 {
		t.Errorf("refused cell counted: Completed() = %d", j.Completed())
	}
	if _, ok := j.Lookup("g", Unweighted, "FCFS", "EASY"); ok {
		t.Error("refused cell served by Lookup")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("refused cell reached the file: %q", data)
	}
}

// Regression: resuming a journal with a torn last line used to append
// the next cell onto that line, and the following resume dropped the
// merged line, losing the cell. Resume now cuts the torn tail first.
func TestJournalResumeAfterTornTailKeepsNextCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("g", Unweighted, Cell{Order: "FCFS", Start: "EASY", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"grid":"g","case":"Unweighted","order":"PSRS","sta`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Record("g", Unweighted, Cell{Order: "SMART-FFIA", Start: "LIST", Value: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Completed() != 2 {
		t.Errorf("second resume loaded %d cells, want 2", j3.Completed())
	}
	for _, c := range []Cell{{Order: "FCFS", Start: "EASY", Value: 1}, {Order: "SMART-FFIA", Start: "LIST", Value: 2}} {
		got, ok := j3.Lookup("g", Unweighted, c.Order, c.Start)
		if !ok || got.Value != c.Value {
			t.Errorf("cell %s/%s after the second resume: %+v, %v; want value %g", c.Order, c.Start, got, ok, c.Value)
		}
	}
}
