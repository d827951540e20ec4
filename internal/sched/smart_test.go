package sched

import (
	"testing"

	"jobsched/internal/job"
)

func cfg4() Config {
	return Config{MachineNodes: 4}.withDefaults()
}

func TestGeometricBin(t *testing.T) {
	cases := []struct {
		t    int64
		want int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10},
	}
	for _, c := range cases {
		if got := geometricBin(c.t, 2); got != c.want {
			t.Errorf("geometricBin(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	// γ = 4: ]0,1], ]1,4], ]4,16] …
	if got := geometricBin(16, 4); got != 2 {
		t.Errorf("geometricBin(16, γ=4) = %d, want 2", got)
	}
}

func TestSMARTPlanContainsAllJobsOnce(t *testing.T) {
	o := NewSMARTOrder(FFIA, cfg4())
	jobs := []*job.Job{
		j(0, 1, 100), j(1, 2, 50), j(2, 4, 3000), j(3, 1, 7), j(4, 3, 100),
	}
	plan := o.computePlan(jobs)
	if len(plan) != len(jobs) {
		t.Fatalf("plan has %d jobs, want %d", len(plan), len(jobs))
	}
	seen := map[job.ID]bool{}
	for _, p := range plan {
		if seen[p.ID] {
			t.Fatalf("job %d duplicated", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestSMARTShelfPackingFFIA(t *testing.T) {
	// All jobs in one bin (same estimate 100). Machine 4 nodes.
	// Areas: j0 = 100, j1 = 200, j2 = 300, j3 = 400 → FFIA order
	// j0(1n), j1(2n), j2(3n), j3(4n). Shelves: {j0,j1} (3 nodes),
	// j2 next: 3+3 > 4 → first fit tries shelf 0 (3+3>4) → new shelf
	// {j2}; j3: shelf0 3+4>4, shelf1 3+4>4 → new shelf {j3}.
	o := NewSMARTOrder(FFIA, cfg4())
	jobs := []*job.Job{j(0, 1, 100), j(1, 2, 100), j(2, 3, 100), j(3, 4, 100)}
	shelves := o.packBin(jobs)
	if len(shelves) != 3 {
		t.Fatalf("got %d shelves, want 3", len(shelves))
	}
	if len(shelves[0].jobs) != 2 || shelves[0].usedNodes != 3 {
		t.Errorf("shelf 0 = %d jobs / %d nodes, want 2 / 3",
			len(shelves[0].jobs), shelves[0].usedNodes)
	}
}

func TestSMARTShelfPackingNFIWNextFitOnly(t *testing.T) {
	// NFIW uses only the current shelf: with unit weights the sort key
	// is nodes ascending → 1,1,4,4 on a 4-node machine packs
	// {1,1} → new {4} → new {4}: 3 shelves. First-fit would reuse
	// earlier shelves; next-fit must not.
	o := NewSMARTOrder(NFIW, cfg4())
	jobs := []*job.Job{j(0, 1, 100), j(1, 1, 100), j(2, 4, 100), j(3, 4, 100)}
	shelves := o.packBin(jobs)
	if len(shelves) != 3 {
		t.Fatalf("got %d shelves, want 3", len(shelves))
	}
	if shelves[0].usedNodes != 2 {
		t.Errorf("shelf 0 nodes = %d, want 2", shelves[0].usedNodes)
	}
}

func TestSMARTSmithRuleOrdersShelves(t *testing.T) {
	// Two bins: short jobs (est 10) and long jobs (est 1000), unit
	// weights. Short shelf ratio = n/10 ≫ long shelf ratio = n/1000 →
	// short jobs must precede long ones in the plan.
	o := NewSMARTOrder(FFIA, cfg4())
	long1, long2 := j(0, 2, 1000), j(1, 2, 1000)
	short1, short2 := j(2, 2, 10), j(3, 2, 10)
	plan := o.computePlan([]*job.Job{long1, long2, short1, short2})
	pos := map[job.ID]int{}
	for i, p := range plan {
		pos[p.ID] = i
	}
	if pos[short1.ID] > pos[long1.ID] || pos[short2.ID] > pos[long2.ID] {
		t.Errorf("Smith rule violated: plan order %v", ids(plan))
	}
}

func TestSMARTWeightedSmithRule(t *testing.T) {
	// With area weights a long shelf can outrank a short one: one
	// huge-area long job (4n × 1000) vs a tiny short job (1n × 10).
	// Long ratio = 4000/1000 = 4 > short ratio = 10/10 = 1.
	c := cfg4()
	c.Weight = job.AreaWeight
	o := NewSMARTOrder(FFIA, c)
	long := j(0, 4, 1000)
	short := j(1, 1, 10)
	plan := o.computePlan([]*job.Job{short, long})
	if plan[0] != long {
		t.Errorf("weighted Smith rule: plan order %v, want long first", ids(plan))
	}
}

func TestSMARTGammaChangesBinning(t *testing.T) {
	// With γ=2, estimates 100 and 150 land in different bins (bin 7:
	// ]64,128] vs bin 8: ]128,256]); with γ=16 they share a bin.
	if geometricBin(100, 2) == geometricBin(150, 2) {
		t.Error("γ=2 should separate 100 and 150")
	}
	if geometricBin(100, 16) != geometricBin(150, 16) {
		t.Error("γ=16 should merge 100 and 150")
	}
}

func TestSMARTOrderLifecycle(t *testing.T) {
	o := NewSMARTOrder(FFIA, cfg4())
	a, b, c := j(0, 1, 10), j(1, 1, 10), j(2, 1, 10)
	o.Push(a, 0)
	o.Push(b, 0)
	if o.Len() != 2 {
		t.Fatalf("Len = %d", o.Len())
	}
	got := orderedOf(o, 0)
	if len(got) != 2 {
		t.Fatalf("Ordered = %v", ids(got))
	}
	o.Remove(a, 1)
	o.Push(c, 1)
	if o.Len() != 2 {
		t.Fatalf("Len after remove/push = %d", o.Len())
	}
	got = orderedOf(o, 1)
	seen := map[job.ID]bool{}
	for _, g := range got {
		seen[g.ID] = true
	}
	if seen[a.ID] || !seen[b.ID] || !seen[c.ID] {
		t.Fatalf("Ordered after lifecycle = %v", ids(got))
	}
}

func TestSMARTNames(t *testing.T) {
	if NewSMARTOrder(FFIA, cfg4()).Name() != "SMART-FFIA" {
		t.Error("FFIA name")
	}
	if NewSMARTOrder(NFIW, cfg4()).Name() != "SMART-NFIW" {
		t.Error("NFIW name")
	}
}

func TestSMARTPanicsOnBadGamma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c := cfg4()
	c.SmartGamma = 1
	NewSMARTOrder(FFIA, c)
}

func ids(jobs []*job.Job) []job.ID {
	out := make([]job.ID, len(jobs))
	for i, jj := range jobs {
		out[i] = jj.ID
	}
	return out
}
