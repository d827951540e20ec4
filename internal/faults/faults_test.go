package faults

import (
	"reflect"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		MachineNodes: 16, Horizon: 200_000, Seed: 42,
		MTBF: 5_000, MTTR: 600, FailShape: 0.7, RepairShape: 2,
		NodesPerFailure: 2,
		Maintenance: []Window{
			{At: 10_000, Duration: 1_000, Nodes: 4, Every: 50_000},
		},
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different plans")
	}
	stochastic := len(a.Failures) - len(a.Announced)
	if len(a.Failures) == 0 || stochastic == 0 || len(a.Announced) == 0 {
		t.Fatalf("plan unexpectedly empty: %d failures, %d stochastic, %d announced",
			len(a.Failures), stochastic, len(a.Announced))
	}
}

func TestGenerateExponentialRate(t *testing.T) {
	cfg := Config{
		MachineNodes: 16, Horizon: 1_000_000, Seed: 7,
		MTBF: 10_000, MTTR: 300,
	}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Expect roughly horizon/MTBF = 100 failures; allow a generous band.
	n := len(p.Failures) - len(p.Announced)
	if n < 50 || n > 200 {
		t.Fatalf("got %d stochastic failures for MTBF 10k over 1M s, want ~100", n)
	}
	for _, f := range p.Failures {
		if f.At < 0 || f.At >= cfg.Horizon {
			t.Fatalf("failure onset %d outside [0, horizon)", f.At)
		}
		if f.Duration < 1 || f.Nodes < 1 {
			t.Fatalf("degenerate failure %+v", f)
		}
	}
}

func TestGenerateShapeMatters(t *testing.T) {
	base := Config{MachineNodes: 16, Horizon: 500_000, Seed: 3, MTBF: 5_000, MTTR: 300}
	bursty, regular := base, base
	bursty.FailShape = 0.5
	regular.FailShape = 3
	a, err := Generate(bursty)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(regular)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Failures, b.Failures) {
		t.Fatal("shape parameter had no effect on the plan")
	}
}

func TestMaintenanceExpansion(t *testing.T) {
	cfg := Config{
		MachineNodes: 8, Horizon: 1_000,
		Maintenance: []Window{
			{At: 100, Duration: 50, Nodes: 8},                     // one-shot
			{At: 0, Duration: 10, Nodes: 1, Every: 300, Count: 2}, // bounded recurrence
			{At: 200, Duration: 20, Nodes: 2, Every: 400},         // recur to horizon
		},
	}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Failure{
		{At: 0, Nodes: 1, Duration: 10},
		{At: 100, Nodes: 8, Duration: 50},
		{At: 200, Nodes: 2, Duration: 20},
		{At: 300, Nodes: 1, Duration: 10},
		{At: 600, Nodes: 2, Duration: 20},
	}
	if !reflect.DeepEqual(p.Announced, want) {
		t.Fatalf("announced = %+v, want %+v", p.Announced, want)
	}
	// With no stochastic process the full plan IS the maintenance plan.
	if !reflect.DeepEqual(p.Failures, p.Announced) {
		t.Fatalf("failures = %+v, want the announced windows only", p.Failures)
	}
}

func TestConcurrencyCap(t *testing.T) {
	cfg := Config{
		MachineNodes: 10, Horizon: 100_000, Seed: 11,
		MTBF: 50, MTTR: 5_000, // repairs far slower than failures: heavy overlap
		NodesPerFailure: 4, MaxDownFraction: 0.5,
	}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) == 0 {
		t.Fatal("no failures generated")
	}
	for _, f := range p.Failures {
		if d := downAt(p.Failures, f.At); d > 5 {
			t.Fatalf("%d nodes down at t=%d, cap is 5", d, f.At)
		}
	}
}

func TestGenerateSimulates(t *testing.T) {
	// End-to-end: a generated plan drives a real simulation without
	// tripping any engine or schedule invariant.
	cfg := Config{
		MachineNodes: 8, Horizon: 20_000, Seed: 5,
		MTBF: 1_000, MTTR: 200,
		Maintenance: []Window{{At: 5_000, Duration: 500, Nodes: 4}},
	}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job.Job, 40)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID: job.ID(i), Submit: int64(i) * 250,
			Runtime: 300, Estimate: 300, Nodes: 1 + i%4,
		}
	}
	res, err := sim.RunChecked(sim.Machine{Nodes: 8}, jobs, newFIFO(), sim.Options{
		Failures: p.Failures,
	})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, a := range res.Schedule.Allocs {
		if !a.Aborted {
			completed++
		}
	}
	if completed != len(jobs) {
		t.Fatalf("%d of %d jobs completed", completed, len(jobs))
	}
}

func TestConfigErrors(t *testing.T) {
	bad := []Config{
		{MachineNodes: 0},
		{MachineNodes: 4, MTBF: 100},                        // MTTR missing
		{MachineNodes: 4, MTBF: 100, MTTR: 10},              // horizon missing
		{MachineNodes: 4, MTBF: -1, MTTR: 10, Horizon: 100}, // negative rate
		{MachineNodes: 4, NodesPerFailure: 5, MTBF: 1, MTTR: 1, Horizon: 10},
		{MachineNodes: 4, MaxDownFraction: 2, MTBF: 1, MTTR: 1, Horizon: 10},
		{MachineNodes: 4, Maintenance: []Window{{At: -1, Duration: 5, Nodes: 1}}},
		{MachineNodes: 4, Maintenance: []Window{{At: 0, Duration: 0, Nodes: 1}}},
		{MachineNodes: 4, Maintenance: []Window{{At: 0, Duration: 5, Nodes: 9}}},
		{MachineNodes: 4, Maintenance: []Window{{At: 0, Duration: 5, Nodes: 1, Every: 3}}},  // period < duration
		{MachineNodes: 4, Maintenance: []Window{{At: 0, Duration: 5, Nodes: 1, Every: 10}}}, // unbounded, no horizon
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
