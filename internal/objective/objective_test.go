package objective

import (
	"math"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

func sched2() *sim.Schedule {
	// Machine 4: job 0 (2n) submitted 0, runs [10, 110); job 1 (1n)
	// submitted 5, runs [5, 25).
	j0 := &job.Job{ID: 0, Nodes: 2, Submit: 0, Runtime: 100, Estimate: 100}
	j1 := &job.Job{ID: 1, Nodes: 1, Submit: 5, Runtime: 20, Estimate: 20}
	return &sim.Schedule{
		Machine: sim.Machine{Nodes: 4},
		Allocs: []sim.Allocation{
			{Job: j0, Start: 10, End: 110},
			{Job: j1, Start: 5, End: 25},
		},
	}
}

func TestAvgResponseTime(t *testing.T) {
	// Responses: 110-0 = 110; 25-5 = 20 → mean 65.
	if got := (AvgResponseTime{}).Eval(sched2()); got != 65 {
		t.Errorf("AvgResponseTime = %v, want 65", got)
	}
}

func TestAvgWeightedResponseTime(t *testing.T) {
	// Weights: 2×100 = 200, 1×20 = 20. Weighted responses: 200×110 =
	// 22000, 20×20 = 400 → mean 11200.
	if got := (AvgWeightedResponseTime{}).Eval(sched2()); got != 11200 {
		t.Errorf("AvgWeightedResponseTime = %v, want 11200", got)
	}
}

func TestMakespanMetric(t *testing.T) {
	if got := (Makespan{}).Eval(sched2()); got != 110 {
		t.Errorf("Makespan = %v, want 110", got)
	}
}

func TestAvgWaitTime(t *testing.T) {
	// Waits: 10, 0 → mean 5.
	if got := (AvgWaitTime{}).Eval(sched2()); got != 5 {
		t.Errorf("AvgWaitTime = %v, want 5", got)
	}
}

func TestIdleTimeFullFrame(t *testing.T) {
	// Frame [0, 110): 4×110 = 440 node-s; used = 2×100 + 1×20 = 220.
	m := IdleTime{From: 0, To: 0} // To=0 → makespan
	if got := m.Eval(sched2()); got != 220 {
		t.Errorf("IdleTime = %v, want 220", got)
	}
}

func TestIdleTimeSubFrame(t *testing.T) {
	// Frame [0, 10): 40 node-s; used: job1 overlaps [5,10) → 5.
	m := IdleTime{From: 0, To: 10}
	if got := m.Eval(sched2()); got != 35 {
		t.Errorf("IdleTime[0,10) = %v, want 35", got)
	}
	// Degenerate frame.
	if got := (IdleTime{From: 10, To: 10}).Eval(sched2()); got != 0 {
		t.Errorf("empty frame idle = %v", got)
	}
}

func TestUtilizationMetric(t *testing.T) {
	// First start 5, makespan 110 → span 105×4 = 420; used 220.
	want := 220.0 / 420.0
	if got := (Utilization{}).Eval(sched2()); math.Abs(got-want) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	// The streaming aggregates report the same figure, bit for bit.
	var agg sim.Aggregates
	for _, a := range sched2().Allocs {
		if err := agg.Emit(a); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := agg.Utilization(4), (Utilization{}).Eval(sched2()); got != want {
		t.Errorf("Aggregates.Utilization = %v, want %v", got, want)
	}
}

func TestMetricsOnEmptySchedule(t *testing.T) {
	s := &sim.Schedule{Machine: sim.Machine{Nodes: 4}}
	metrics := []Metric{
		AvgResponseTime{}, AvgWeightedResponseTime{}, Makespan{},
		AvgWaitTime{}, IdleTime{}, Utilization{},
	}
	for _, m := range metrics {
		if got := m.Eval(s); got != 0 {
			t.Errorf("%s on empty schedule = %v, want 0", m.Name(), got)
		}
	}
}

func TestMetricNamesNonEmpty(t *testing.T) {
	metrics := []Metric{
		AvgResponseTime{}, AvgWeightedResponseTime{}, Makespan{},
		AvgWaitTime{}, IdleTime{}, Utilization{},
		MetricFunc{MetricName: "custom", Fn: func(*sim.Schedule) float64 { return 1 }},
	}
	for _, m := range metrics {
		if m.Name() == "" {
			t.Errorf("%T has empty name", m)
		}
	}
}

func TestMetricFunc(t *testing.T) {
	m := MetricFunc{MetricName: "answer", Fn: func(*sim.Schedule) float64 { return 42 }}
	if m.Eval(nil) != 42 || m.Name() != "answer" {
		t.Error("MetricFunc adapter broken")
	}
}

func TestKilledJobWeightUsesEffectiveRuntime(t *testing.T) {
	// A killed job consumes nodes × effective runtime, not the full
	// requested runtime.
	j0 := &job.Job{ID: 0, Nodes: 2, Submit: 0, Runtime: 100, Estimate: 60}
	s := &sim.Schedule{
		Machine: sim.Machine{Nodes: 4},
		Allocs:  []sim.Allocation{{Job: j0, Start: 0, End: 60, Killed: true}},
	}
	// Weighted response = (2×60) × 60 = 7200.
	if got := (AvgWeightedResponseTime{}).Eval(s); got != 7200 {
		t.Errorf("weighted response = %v, want 7200", got)
	}
}

func TestAbortedAttemptsCarryNoResponse(t *testing.T) {
	// Job 0's first attempt is cut short by a failure at 30 and restarted
	// at 40; job 1 runs undisturbed. The aborted attempt counts towards
	// the used area only: responses 140 and 20, waits 40 and 0.
	j0 := &job.Job{ID: 0, Nodes: 2, Submit: 0, Runtime: 100, Estimate: 100}
	j1 := &job.Job{ID: 1, Nodes: 1, Submit: 5, Runtime: 20, Estimate: 20}
	s := &sim.Schedule{
		Machine: sim.Machine{Nodes: 4},
		Allocs: []sim.Allocation{
			{Job: j0, Start: 0, End: 30, Aborted: true},
			{Job: j1, Start: 5, End: 25},
			{Job: j0, Start: 40, End: 140},
		},
	}
	for _, c := range []struct {
		m    Metric
		want float64
	}{
		{AvgResponseTime{}, (140 + 20) / 2},
		{AvgWeightedResponseTime{}, (200*140 + 20*20) / 2},
		{AvgWaitTime{}, (40 + 0) / 2},
		{Utilization{}, (2*30 + 1*20 + 2*100) / (140.0 * 4)},
	} {
		if got := c.m.Eval(s); got != c.want {
			t.Errorf("%s = %v, want %v", c.m.Name(), got, c.want)
		}
	}
}
