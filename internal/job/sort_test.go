package job

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestSortBySubmitStableOnTies(t *testing.T) {
	jobs := []*Job{
		{ID: 3, Submit: 50},
		{ID: 1, Submit: 50},
		{ID: 2, Submit: 10},
	}
	SortBySubmit(jobs)
	wantIDs := []ID{2, 1, 3} // ties broken by ID
	for i, w := range wantIDs {
		if jobs[i].ID != w {
			t.Fatalf("pos %d: got ID %d, want %d", i, jobs[i].ID, w)
		}
	}
}

func TestSortBySubmitProperty(t *testing.T) {
	f := func(submits []int16) bool {
		jobs := make([]*Job, len(submits))
		for i, s := range submits {
			v := int64(s)
			if v < 0 {
				v = -v
			}
			jobs[i] = &Job{ID: ID(i), Submit: v}
		}
		SortBySubmit(jobs)
		return sort.SliceIsSorted(jobs, func(a, b int) bool {
			if jobs[a].Submit != jobs[b].Submit {
				return jobs[a].Submit < jobs[b].Submit
			}
			return jobs[a].ID < jobs[b].ID
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenumber(t *testing.T) {
	jobs := []*Job{{ID: 42}, {ID: 7}, {ID: 99}}
	Renumber(jobs)
	for i, j := range jobs {
		if j.ID != ID(i) {
			t.Fatalf("pos %d has ID %d", i, j.ID)
		}
	}
}

func TestMaxNodes(t *testing.T) {
	if got := MaxNodes(nil); got != 0 {
		t.Errorf("MaxNodes(nil) = %d", got)
	}
	jobs := []*Job{{Nodes: 3}, {Nodes: 17}, {Nodes: 5}}
	if got := MaxNodes(jobs); got != 17 {
		t.Errorf("MaxNodes = %d, want 17", got)
	}
}

func TestSpan(t *testing.T) {
	first, last := Span(nil)
	if first != 0 || last != 0 {
		t.Errorf("Span(nil) = %d,%d", first, last)
	}
	jobs := []*Job{
		{Submit: 100, Estimate: 50},
		{Submit: 20, Estimate: 10},
		{Submit: 60, Estimate: 1000},
	}
	first, last = Span(jobs)
	if first != 20 {
		t.Errorf("first = %d, want 20", first)
	}
	if last != 1060 {
		t.Errorf("last = %d, want 1060", last)
	}
}

// TestSpanNearMaxInt64 is the regression test for the checkedarith
// finding in Span: submit + estimate wrapped negative for jobs whose
// projected completion overflows int64, so the wrapped end lost the
// `end > last` comparison and Span under-reported the horizon. The
// saturating add keeps the comparison monotone.
func TestSpanNearMaxInt64(t *testing.T) {
	const maxI64 = int64(^uint64(0) >> 1)
	jobs := []*Job{
		{ID: 0, Nodes: 1, Submit: 100, Estimate: 50, Runtime: 50},
		{ID: 1, Nodes: 1, Submit: maxI64 - 10, Estimate: 100, Runtime: 100},
	}
	first, last := Span(jobs)
	if first != 100 {
		t.Fatalf("first = %d, want 100", first)
	}
	if last != maxI64 {
		t.Fatalf("last = %d, want MaxInt64 (pre-fix: wrapped end lost the comparison, last = %d)", last, int64(150))
	}
}
