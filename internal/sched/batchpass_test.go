package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Batched scheduling passes (BatchStarter.PickMany) are specified to be
// observationally equivalent to the engine's Pick-until-nil protocol:
// the same jobs start at the same instants with the same classified
// decisions, on every grid algorithm, with and without announced drains,
// and regardless of which profile kernel backs the starter's scratch
// state. These tests pin that equivalence end to end through the engine.

// pickOnly hides a start policy's batch interface, so composing through
// it resolves to the sequential Pick loop — the same way any production
// wrapper (ReservedStarter, policy windows) does. It forwards
// LastStartDecision so start events keep their classification.
type pickOnly struct{ Starter }

func (p pickOnly) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	return p.Starter.(sim.DecisionExplainer).LastStartDecision(j)
}

// sequentialOf recomposes c over the Pick loop. The policies are shared,
// so c itself must not be run afterwards.
func sequentialOf(c *Composite) *Composite {
	return WrapStarter(c, func(s Starter) Starter { return pickOnly{s} })
}

// runTraced simulates jobs under alg and returns the schedule plus the
// recorded start events (decisions included). EventPass/EventBackfill
// counts legitimately differ between the protocols — a batched pass is
// one Startable call and one walk — so only start events are compared.
func runTraced(t *testing.T, alg *Composite, jobs []*job.Job, nodes int) (*sim.Schedule, []telemetry.Event) {
	t.Helper()
	buf := &telemetry.Buffer{}
	res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true, Recorder: buf})
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	var starts []telemetry.Event
	for _, ev := range buf.Events() {
		if ev.Type == telemetry.EventStart {
			starts = append(starts, ev)
		}
	}
	return res.Schedule, starts
}

// scheduleFingerprint renders per-job placements in a canonical order.
func scheduleFingerprint(s *sim.Schedule) string {
	out := ""
	for _, a := range s.Allocs {
		out += fmt.Sprintf("%d@[%d,%d)k=%v;", a.Job.ID, a.Start, a.End, a.Killed)
	}
	return out
}

// batchGridCases enumerates the algorithm configurations under test:
// every grid cell, conservative in exact/fast/depth-bounded flavors,
// with and without announced maintenance windows.
func batchGridCases(nodes int) []struct {
	name string
	mk   func() (*Composite, error)
} {
	drains := []sim.Failure{
		{At: 120, Nodes: nodes, Duration: 60},
		{At: 400, Nodes: nodes / 2, Duration: 100},
	}
	var cases []struct {
		name string
		mk   func() (*Composite, error)
	}
	add := func(name string, o OrderName, s StartName, cfg Config) {
		cfg.MachineNodes = nodes
		cases = append(cases, struct {
			name string
			mk   func() (*Composite, error)
		}{name, func() (*Composite, error) { return New(o, s, cfg) }})
	}
	for _, o := range GridOrders() {
		for _, s := range GridStarts() {
			add(fmt.Sprintf("%s/%s", o, s), o, s, Config{})
		}
	}
	add("FCFS/Backfilling-fast", OrderFCFS, StartConservative, Config{FastConservative: true})
	add("FCFS/Backfilling-depth3", OrderFCFS, StartConservative, Config{MaxBackfillDepth: 3})
	add("FCFS/Backfilling-drains", OrderFCFS, StartConservative, Config{Announced: drains})
	add("FCFS/Backfilling-fast-drains", OrderFCFS, StartConservative,
		Config{FastConservative: true, Announced: drains})
	add("FCFS/EASY-drains", OrderFCFS, StartEASY, Config{Announced: drains})
	add("GG-drains", OrderGG, StartList, Config{Announced: drains})
	return cases
}

// TestBatchedPassesMatchSequential is the end-to-end equivalence gate:
// for every algorithm configuration and several random workloads, the
// batched engine run must produce a byte-identical schedule AND
// identical start events (time, free-node accounting, reason, depth,
// head, shadow, spare) to the same policies run through the Pick loop.
func TestBatchedPassesMatchSequential(t *testing.T) {
	const nodes = 16
	type workload struct {
		name string
		jobs []*job.Job
	}
	var workloads []workload
	for seed := int64(1); seed <= 4; seed++ {
		workloads = append(workloads, workload{fmt.Sprintf("seed %d", seed),
			randomJobs(rand.New(rand.NewSource(seed)), 250, nodes)})
	}
	// A deep backlog, everything submitted at t=0: wide jobs at the head,
	// narrow ones behind them. Backfilling and Garey&Graham start jobs
	// from the middle of a long queue while the wide heads drain one at a
	// time, so the Pick loop's Ordered view is dropped and rebuilt between
	// head starts that merely reslice it. The one straggler carries the
	// clock past the announced drain windows: the drains are announced,
	// not injected, so no other event would wake the scheduler after them.
	backlog := workload{name: "backlog"}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		j := &job.Job{ID: job.ID(i), Nodes: 1 + r.Intn(3), Estimate: int64(20 + r.Intn(200))}
		if i < 60 {
			j.Nodes = nodes/2 + 1 + r.Intn(nodes/2)
		}
		j.Runtime = 1 + r.Int63n(j.Estimate)
		backlog.jobs = append(backlog.jobs, j)
	}
	backlog.jobs = append(backlog.jobs, &job.Job{ID: 400, Submit: 600, Nodes: 1, Estimate: 10, Runtime: 10})
	workloads = append(workloads, backlog)

	for _, w := range workloads {
		for _, tc := range batchGridCases(nodes) {
			batched, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			reference, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			sequential := sequentialOf(reference)

			bs, bev := runTraced(t, batched, w.jobs, nodes)
			ss, sev := runTraced(t, sequential, w.jobs, nodes)

			if bf, sf := scheduleFingerprint(bs), scheduleFingerprint(ss); bf != sf {
				t.Fatalf("%s %s: batched schedule diverged from sequential\nbatched:    %s\nsequential: %s",
					w.name, tc.name, bf, sf)
			}
			if len(bev) != len(sev) {
				t.Fatalf("%s %s: %d start events batched, %d sequential",
					w.name, tc.name, len(bev), len(sev))
			}
			for i := range bev {
				if bev[i] != sev[i] {
					t.Fatalf("%s %s: start event %d diverged\nbatched:    %+v\nsequential: %+v",
						w.name, tc.name, i, bev[i], sev[i])
				}
			}
		}
	}
}

// TestProfileBackendIndependence pins that whole schedules do not depend
// on which kernel backs the starters' scratch profiles: the tree
// (default), the array kernel, and the brute-force reference oracle must
// yield identical schedules and start events for every configuration.
func TestProfileBackendIndependence(t *testing.T) {
	const nodes = 16
	factories := []struct {
		name string
		f    ProfileFactory
	}{
		{"tree", nil},
		{"array", func(n int, from int64) profile.Kernel { return profile.New(n, from) }},
		{"reference", func(n int, from int64) profile.Kernel { return profile.NewReference(n, from) }},
	}
	jobs := randomJobs(rand.New(rand.NewSource(7)), 200, nodes)
	for _, tc := range batchGridCases(nodes) {
		var baseSched string
		var baseEv []telemetry.Event
		for fi, fac := range factories {
			alg, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			alg.SetProfileFactory(fac.f)
			s, ev := runTraced(t, alg, jobs, nodes)
			if fi == 0 {
				baseSched, baseEv = scheduleFingerprint(s), ev
				continue
			}
			if got := scheduleFingerprint(s); got != baseSched {
				t.Fatalf("%s: %s backend diverged from tree\n%s\nvs\n%s",
					tc.name, fac.name, got, baseSched)
			}
			if len(ev) != len(baseEv) {
				t.Fatalf("%s: %s backend has %d start events, tree %d",
					tc.name, fac.name, len(ev), len(baseEv))
			}
			for i := range ev {
				if ev[i] != baseEv[i] {
					t.Fatalf("%s: %s backend start event %d diverged\n%+v\nvs tree\n%+v",
						tc.name, fac.name, i, ev[i], baseEv[i])
				}
			}
		}
	}
}

// TestPassProtocolResolution is the non-vacuity check on the gate above:
// every configuration New can build resolves to the batched path, and a
// start policy behind a wrapper resolves to the Pick loop. Were either
// false, TestBatchedPassesMatchSequential would compare a path with
// itself.
func TestPassProtocolResolution(t *testing.T) {
	const nodes = 16
	for _, tc := range batchGridCases(nodes) {
		c, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		if c.batchStart == nil || c.batchOrder == nil {
			t.Errorf("%s: resolved to the Pick loop, want the batched pass", tc.name)
		}
		if seq := sequentialOf(c); seq.batchStart != nil || seq.batchOrder != nil {
			t.Errorf("%s: Pick-only wrapper resolved to the batched pass", tc.name)
		}
	}
	cal, err := NewCalendar(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	reserved := Compose(NewFCFSOrder(string(OrderFCFS)), NewReservedStarter(NewEASYStarter(), cal), nodes)
	if reserved.batchStart != nil || reserved.batchOrder != nil {
		t.Error("ReservedStarter resolved to the batched pass; it filters the queue and must be handed the slice")
	}
}

// TestBatchedPassStartsManyPerPass checks that a batch really is one: on a
// saturated FCFS/List workload where many queued jobs fit at one drain
// instant, a single batched pass must actually start more than one job
// (otherwise the equivalence tests above would be comparing two
// sequential implementations).
func TestBatchedPassStartsManyPerPass(t *testing.T) {
	const nodes = 8
	// One machine-filling job, then eight 1-node jobs submitted while it
	// runs: when it completes, all eight start in the same pass.
	jobs := []*job.Job{{ID: 0, Submit: 0, Nodes: nodes, Estimate: 100, Runtime: 100}}
	for i := 1; i <= nodes; i++ {
		jobs = append(jobs, &job.Job{ID: job.ID(i), Submit: 1, Nodes: 1, Estimate: 50, Runtime: 50})
	}
	alg, err := New(OrderFCFS, StartList, Config{MachineNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	buf := &telemetry.Buffer{}
	if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true, Recorder: buf}); err != nil {
		t.Fatal(err)
	}
	// Count starts per (pass) by tracking EventPass boundaries.
	maxPerPass, cur := 0, 0
	for _, ev := range buf.Events() {
		switch ev.Type {
		case telemetry.EventPass:
			if cur > maxPerPass {
				maxPerPass = cur
			}
			cur = 0
		case telemetry.EventStart:
			cur++
		}
	}
	if cur > maxPerPass {
		maxPerPass = cur
	}
	if maxPerPass < nodes {
		t.Fatalf("batched pass started at most %d jobs, want %d in one pass", maxPerPass, nodes)
	}
}
