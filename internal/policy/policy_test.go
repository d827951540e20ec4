package policy

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/sched"
)

func scenario(t *testing.T) *Scenario {
	t.Helper()
	return ChemistryScenario(1, 5)
}

func TestChemistryScenarioShape(t *testing.T) {
	sc := scenario(t)
	if sc.Machine.Nodes != 64 {
		t.Errorf("machine = %d nodes", sc.Machine.Nodes)
	}
	if len(sc.Sessions) != 5 {
		t.Errorf("%d sessions, want 5", len(sc.Sessions))
	}
	drug, uni := 0, 0
	for _, j := range sc.Jobs {
		switch j.Class {
		case ClassDrug:
			drug++
		case ClassUni:
			uni++
		default:
			t.Fatalf("unknown class %q", j.Class)
		}
		if err := j.Validate(64, true); err != nil {
			t.Fatalf("invalid scenario job: %v", err)
		}
	}
	if drug != 5*12 || uni != 5*20 {
		t.Errorf("drug=%d uni=%d, want 60/100", drug, uni)
	}
}

func TestChemistryScenarioDeterministic(t *testing.T) {
	a := ChemistryScenario(9, 3)
	b := ChemistryScenario(9, 3)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("job counts differ")
	}
	for i := range a.Jobs {
		if *a.Jobs[i] != *b.Jobs[i] {
			t.Fatal("scenario not deterministic")
		}
	}
}

func TestChemistryScenarioPanicsOnZeroDays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ChemistryScenario(1, 0)
}

func TestSweepTradeoff(t *testing.T) {
	sc := scenario(t)
	results, err := sc.Sweep([]float64{0, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4*2 {
		t.Fatalf("%d results, want 8", len(results))
	}
	// The reservation rule must not worsen course availability: for each
	// algorithm, unavailability at reserve=1 <= unavailability at 0.
	byAlg := map[string]map[float64]objective.Point{}
	for _, r := range results {
		if byAlg[r.Algorithm] == nil {
			byAlg[r.Algorithm] = map[float64]objective.Point{}
		}
		byAlg[r.Algorithm][r.Reserve] = r.Point
	}
	betterSomewhere := false
	for alg, pts := range byAlg {
		u0 := pts[0].Criteria[1]
		u1 := pts[1].Criteria[1]
		if u1 > u0 {
			t.Errorf("%s: full reservation worsened availability (%.0f%% → %.0f%%)",
				alg, u0, u1)
		}
		if u1 < u0 {
			betterSomewhere = true
		}
	}
	if !betterSomewhere {
		t.Log("warning: reservation never changed availability; trade-off space degenerate")
	}
}

func TestCriteriaComputation(t *testing.T) {
	sc := scenario(t)
	results, err := sc.Sweep([]float64{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		dr, un := r.Point.Criteria[0], r.Point.Criteria[1]
		if dr <= 0 {
			t.Errorf("%s: drug response %v", r.Algorithm, dr)
		}
		if un < 0 || un > 100 {
			t.Errorf("%s: unavailability %v out of [0,100]", r.Algorithm, un)
		}
	}
}

func TestFigure1RanksFront(t *testing.T) {
	sc := scenario(t)
	pts, err := Figure1(sc, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	front, dominated := 0, 0
	for _, p := range pts {
		if p.Rank >= 0 {
			front++
		} else {
			dominated++
		}
	}
	if front == 0 {
		t.Fatal("no Pareto-optimal schedules found")
	}
	t.Logf("front=%d dominated=%d", front, dominated)
}

func TestFigure2OfflineWeaklyDominates(t *testing.T) {
	sc := scenario(t)
	online, offline, err := Figure2(sc, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(online) != len(offline) {
		t.Fatalf("point counts differ: %d vs %d", len(online), len(offline))
	}
	// The off-line (exact knowledge) cloud should reach at least as good
	// a best drug-response as the on-line cloud (Figure 2's message).
	best := func(pts []objective.Point) float64 {
		b := pts[0].Criteria[0]
		for _, p := range pts {
			if p.Criteria[0] < b {
				b = p.Criteria[0]
			}
		}
		return b
	}
	if best(offline) > best(online)*1.10 {
		t.Errorf("off-line best drug response %.0f notably worse than on-line %.0f",
			best(offline), best(online))
	}
}

// TestReservingStarterForwardsInterrupt pins that the engine's
// cancellation hook reaches the wrapped start policy's walk loop: the
// wrapper itself never polls, so a hook it swallowed would never be seen.
func TestReservingStarterForwardsInterrupt(t *testing.T) {
	base, err := sched.New(sched.OrderFCFS, sched.StartConservative, sched.Config{MachineNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := WithReserve(base, nil, 0.5)
	polls := 0
	s.SetInterrupt(func() bool { polls++; return false })
	s.Submit(&job.Job{ID: 1, Nodes: 1, Estimate: 10, Runtime: 10}, 0)
	if picked := s.Startable(0, 8, nil); len(picked) != 1 {
		t.Fatalf("started %d jobs, want 1", len(picked))
	}
	if polls == 0 {
		t.Error("the interrupt hook was never polled: the wrapper dropped it")
	}
}

// TestSweepMatchesGolden pins Sweep's criteria for its four base
// algorithms, on-line and off-line, at reserve 0, 0.5 and 1, to the
// values the slice-protocol wrapper produced (captured at d741a41, before
// the wrapper moved onto sched.Filter and Sweep onto sched.New).
func TestSweepMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	sc := ChemistryScenario(3, 5)
	var got strings.Builder
	for _, exact := range []bool{false, true} {
		res, err := sc.Sweep([]float64{0, 0.5, 1}, exact)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			fmt.Fprintf(&got, "%v %s %.2f %.6f %.6f\n", exact, r.Algorithm, r.Reserve, r.Point.Criteria[0], r.Point.Criteria[1])
		}
	}
	if got.String() != string(want) {
		t.Errorf("Sweep moved:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestReserveRefusesHugeEstimate: an estimate near MaxInt64 used to wrap
// `now+estimate <= session` negative, so the job counted as finishing
// before the course and was admitted straight across it.
func TestReserveRefusesHugeEstimate(t *testing.T) {
	base, err := sched.New(sched.OrderFCFS, sched.StartList, sched.Config{MachineNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := WithReserve(base, []Session{{At: 1000, Nodes: 8}}, 1)
	s.Submit(&job.Job{ID: 1, Nodes: 4, Estimate: math.MaxInt64 - 5, Runtime: 10}, 100)
	if picked := s.Startable(100, 8, nil); len(picked) != 0 {
		t.Fatalf("started %v across a fully protected session", picked)
	}
}
