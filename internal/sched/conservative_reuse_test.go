package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"jobsched/internal/cli"
	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/trace"
)

// ConservativeStarter keeps the last pass's profile when reusable says
// it equals a rebuild (DESIGN.md §11). The tests below check that claim
// against a rebuild from scratch on the brute-force Reference kernel at
// every pass that reuses, over every way the state can change between
// passes, and pin how often reuse happens.

// reuseOracle wraps a conservative start policy: before each pass it
// asks the policy whether the pass will reuse its kept profile and, if
// so, recomputes every kept fit from scratch and compares them, and the
// profile from now on. It forwards everything else, so it can sit under
// any wrapper.
type reuseOracle struct {
	*ConservativeStarter
	t              *testing.T
	passes, reused int
}

func (o *reuseOracle) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, m, limit int) []*job.Job {
	o.passes++
	if until, ok := o.reusable(ix, now, running, m); ok && until == now {
		o.reused++
		kept := o.keep.fits
		want, rebuilt := rebuiltFits(ix.AppendOrdered(nil)[:len(kept)], now, running, m, o.announced)
		if !slices.Equal(kept, want) {
			o.t.Fatalf("t=%d: kept fits %v, a rebuild gives %v", now, kept, want)
		}
		if got, want := fromNow(o.scratch.String(), now), fromNow(rebuilt.String(), now); got != want {
			o.t.Fatalf("t=%d: kept profile %s, a rebuild gives %s", now, got, want)
		}
	}
	return o.ConservativeStarter.PickMany(ix, now, free, running, m, limit)
}

// rebuiltFits places ordered from scratch on a fresh Reference profile:
// the running jobs, the announced drains, then each job at its earliest
// fit — the state a rebuilding pass walks through. It returns the fits
// and the profile.
func rebuiltFits(ordered []*job.Job, now int64, running []sim.Running, m int, drains []sim.Failure) ([]int64, profile.Kernel) {
	p := profile.NewReference(m, now)
	for _, r := range running {
		p.Reserve(r.Job.Nodes, now, max(r.EstEnd, now+1))
	}
	for _, f := range drains {
		if start, end := max(f.At, now), job.AddSat(f.At, f.Duration); end > start {
			p.ReserveClamped(f.Nodes, start, end)
		}
	}
	fits := make([]int64, 0, len(ordered))
	for _, j := range ordered {
		t := p.EarliestFit(j.Nodes, j.Estimate, now)
		fits = append(fits, t)
		if t < profile.Infinity {
			p.Reserve(j.Nodes, t, job.AddSat(t, j.Estimate))
		}
	}
	return fits, p
}

// fromNow restricts a rendered canonical profile ("profile[at:free
// ...]") to [now, ∞): the step covering now starts at now, earlier ones
// go.
func fromNow(rendered string, now int64) string {
	steps := strings.Fields(strings.TrimSuffix(strings.TrimPrefix(rendered, "profile["), "]"))
	var out []string
	for i, st := range steps {
		at, free, _ := strings.Cut(st, ":")
		t, err := strconv.ParseInt(at, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("unparsable profile %q", rendered))
		}
		switch {
		case t >= now:
			out = append(out, st)
		case i+1 == len(steps) || !stepBefore(steps[i+1], now):
			out = append(out, fmt.Sprintf("%d:%s", now, free))
		}
	}
	return strings.Join(out, " ")
}

// stepBefore reports whether a rendered step starts at or before now.
func stepBefore(step string, now int64) bool {
	at, _, _ := strings.Cut(step, ":")
	t, _ := strconv.ParseInt(at, 10, 64)
	return t <= now
}

// withReuseOracle returns c with its conservative start policy wrapped
// in a reuseOracle, and the oracle.
func withReuseOracle(t *testing.T, c *Composite) (*Composite, *reuseOracle) {
	t.Helper()
	cs, ok := c.start.(*ConservativeStarter)
	if !ok {
		t.Fatalf("%s: start policy is %T, not conservative", c.Name(), c.start)
	}
	o := &reuseOracle{ConservativeStarter: cs, t: t}
	return WrapStarter(c, func(Starter) Starter { return o }), o
}

// exactly returns copies of jobs whose runtimes equal their estimates:
// no early completions, so most passes may reuse.
func exactly(jobs []*job.Job) []*job.Job {
	out := job.CloneAll(jobs)
	for _, j := range out {
		j.Runtime = j.Estimate
	}
	return out
}

// reuseWorkloads are the gate workloads, each also with exact runtimes,
// and one where most jobs end far before their estimates (the passes
// after those completions repair the kept profile).
func reuseWorkloads(nodes int) []equivWorkload {
	var out []equivWorkload
	for _, w := range equivWorkloads(nodes) {
		out = append(out, w, equivWorkload{w.name + " exact", exactly(w.jobs)})
	}
	return append(out, equivWorkload{"early", earlyJobs(7, 400, nodes)})
}

// runOracle simulates every workload under a fresh scheduler from mk and
// reports how many passes reused a kept profile, over all of them.
func runOracle(t *testing.T, name string, nodes int, opt sim.Options, mk func() (sim.Scheduler, *reuseOracle)) (reused int) {
	t.Helper()
	passes := 0
	for _, w := range reuseWorkloads(nodes) {
		s, o := mk()
		if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(w.jobs), s, opt); err != nil {
			t.Fatalf("%s %s: %v", name, w.name, err)
		}
		passes += o.passes
		reused += o.reused
	}
	t.Logf("%s: %d of %d passes reused the kept profile", name, reused, passes)
	return reused
}

// TestConservativeReuseMatchesRebuild is the reuse differential: at
// every pass that keeps its profile, each kept fit equals a rebuild's.
// It covers every order (PSRS and SMART passes cut at the batch window),
// announced drains, failures with abort and resubmit, the hiding
// wrappers and Switching; internal/policy's wrapper is in
// policy_equiv_test.go. Every row that can reuse must do so somewhere.
func TestConservativeReuseMatchesRebuild(t *testing.T) {
	const nodes = 16
	build := func(o OrderName, cfg Config, wrap func(Starter) Starter) func() (sim.Scheduler, *reuseOracle) {
		return func() (sim.Scheduler, *reuseOracle) {
			cfg.MachineNodes = nodes
			c, err := New(o, StartConservative, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, oracle := withReuseOracle(t, c)
			if wrap != nil {
				c = WrapStarter(c, wrap)
			}
			return c, oracle
		}
	}
	drains := []sim.Failure{
		{At: 120, Nodes: nodes, Duration: 60},
		{At: 400, Nodes: nodes / 2, Duration: 100},
	}
	outages := sim.Options{
		Failures: []sim.Failure{{At: 300, Nodes: 6, Duration: 200}, {At: 900, Nodes: nodes, Duration: 50},
			{At: 1500, Nodes: 3, Duration: 400}},
		Resubmit: sim.ResubmitPolicy{MaxResubmits: 2, BackoffBase: 30},
	}
	cal := equivCalendar(t, nodes)
	type row struct {
		name     string
		opt      sim.Options
		mk       func() (sim.Scheduler, *reuseOracle)
		mayReuse bool
	}
	rows := []row{
		{"drains", sim.Options{}, build(OrderFCFS, Config{Announced: drains}, nil), true},
		{"outages", outages, build(OrderFCFS, Config{}, nil), true},
		{"outages+drains", outages, build(OrderFCFS, Config{Announced: drains}, nil), true},
		{"reservations", sim.Options{}, build(OrderFCFS, Config{}, func(st Starter) Starter {
			return NewReservedStarter(st, cal)
		}), true},
		{"depth3", sim.Options{}, build(OrderFCFS, Config{MaxBackfillDepth: 3}, nil), false},
	}
	for _, o := range GridOrders() {
		if o == OrderGG {
			continue
		}
		rows = append(rows, row{string(o), sim.Options{}, build(o, Config{}, nil), true})
	}
	for _, r := range rows {
		reused := runOracle(t, r.name, nodes, r.opt, r.mk)
		if r.mayReuse != (reused > 0) {
			t.Errorf("%s: %d passes reused, want reuse %v", r.name, reused, r.mayReuse)
		}
	}

	// Switching: a conservative PSRS day over a Garey&Graham night.
	reused := runOracle(t, "switching", nodes, sim.Options{}, func() (sim.Scheduler, *reuseOracle) {
		s, err := NewSwitching(objective.Window{StartHour: 1, EndHour: 2}, OrderPSRS, StartConservative,
			OrderGG, StartList, Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		var o *reuseOracle
		s.day, o = withReuseOracle(t, s.day)
		return s, o
	})
	if reused == 0 {
		t.Error("switching: no pass reused the kept profile")
	}
}

// TestConservativeReuseUnderRandomOps drives a conservative composite
// the way the service layer does — submissions, withdrawals of waiting
// jobs (deadline expiry), and clock advances that stop at completions —
// with the reuse differential checking every pass.
func TestConservativeReuseUnderRandomOps(t *testing.T) {
	const nodes = 16
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, o := range []OrderName{OrderFCFS, OrderSMARTNFIW} {
			c, err := New(o, StartConservative, Config{MachineNodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			c, oracle := withReuseOracle(t, c)
			st := sim.NewStepper(sim.Machine{Nodes: nodes}, c, sim.Options{})
			var clock int64
			pass := func() {
				if _, err := st.RunPasses(clock); err != nil {
					t.Fatal(err)
				}
			}
			for i, id := 0, job.ID(0); i < 600; i++ {
				switch op := r.Intn(10); {
				case op < 5:
					est := int64(1 + r.Intn(400))
					run := est
					if r.Intn(2) == 0 {
						run = 1 + r.Int63n(est)
					}
					id++
					j := &job.Job{ID: id, Submit: clock, Nodes: 1 + r.Intn(nodes), Estimate: est, Runtime: run}
					if err := st.Submit(j, clock); err != nil {
						t.Fatal(err)
					}
					pass()
				case op < 6:
					var waiting []*job.Job
					it := c.Waiting()
					for j := it.Next(); j != nil; j = it.Next() {
						waiting = append(waiting, j)
					}
					if len(waiting) > 0 {
						c.Withdraw(waiting[r.Intn(len(waiting))], clock)
						pass()
					}
				default:
					to := clock + r.Int63n(200)
					for clock < to {
						next := to
						if at, ok := st.NextCompletion(); ok && at < next {
							next = at
						}
						clock = next
						st.Complete(clock)
						pass()
					}
				}
			}
			t.Logf("%s seed %d: %d of %d passes reused", o, seed, oracle.reused, oracle.passes)
			if oracle.reused == 0 {
				t.Errorf("%s seed %d: no pass reused the kept profile", o, seed)
			}
		}
	}
}

// TestConservativeReuseBehindFilter pins that a filtering wrapper hands
// its inner pass the running set in the engine's ID order: the second
// decision of a pass, after a pick whose ID is below a running job's,
// keeps the profile of the first instead of rebuilding it.
func TestConservativeReuseBehindFilter(t *testing.T) {
	const nodes = 4
	cal, err := NewCalendar(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats profile.Stats
	s := NewReservedStarter(NewConservativeStarter(0), cal)
	s.Instrument(telemetry.Hooks{ProfileStats: &stats})
	ix := queue.NewIndex()
	j1 := &job.Job{ID: 1, Nodes: 1, Estimate: 100, Runtime: 100}
	j2 := &job.Job{ID: 2, Nodes: 1, Estimate: 100, Runtime: 100}
	ix.Push(j1)
	ix.Push(j2)
	running := []sim.Running{{Job: &job.Job{ID: 10, Nodes: 1, Estimate: 500, Runtime: 500}, EstEnd: 500}}
	if got := s.PickMany(ix, 0, 3, running, nodes, UnlimitedWindow); !slices.Equal(got, []*job.Job{j1, j2}) {
		t.Fatalf("started %v, want [1 2]", got)
	}
	if stats.Passes != 2 || stats.Resets != 0 {
		t.Errorf("%d resets in %d passes, want 0 in 2", stats.Resets, stats.Passes)
	}
}

// TestConservativeReservationMovesLater pins the cross-pass half of
// what conservative backfilling promises: nothing. An early completion
// lets J1 move earlier into the window J2 held, and J2's reservation
// moves later — and that pass repairs the kept profile up to J1, the
// first reservation that moves, and places the rest again. (The
// within-pass half, that no start delays a job ahead of it, is what
// TestConservativeBackfillNeverDelaysEarlierJobs checks at every
// decision.)
func TestConservativeReservationMovesLater(t *testing.T) {
	const nodes = 5
	r1 := &job.Job{ID: 1, Nodes: 3, Estimate: 100, Runtime: 10}
	r2 := &job.Job{ID: 2, Nodes: 1, Estimate: 30, Runtime: 30}
	j1 := &job.Job{ID: 3, Nodes: 5, Estimate: 100, Runtime: 100}
	j2 := &job.Job{ID: 4, Nodes: 2, Estimate: 60, Runtime: 60}
	j3 := &job.Job{ID: 5, Nodes: 1, Estimate: 1000, Runtime: 1000}
	ix := queue.NewIndex()
	for _, j := range []*job.Job{j1, j2, j3} {
		ix.Push(j)
	}
	s := NewConservativeStarter(0)
	pass := func(now int64, free int, running []sim.Running, wantPath passPath, wantFits []int64) {
		t.Helper()
		if got := s.PickMany(ix, now, free, running, nodes, UnlimitedWindow); len(got) != 0 {
			t.Fatalf("t=%d: started %v, want nothing", now, got)
		}
		if s.path != wantPath {
			t.Errorf("t=%d: the pass took path %v, want %v", now, s.path, wantPath)
		}
		if !slices.Equal(s.keep.fits, wantFits) {
			t.Errorf("t=%d: reservations %v, want %v", now, s.keep.fits, wantFits)
		}
	}
	both := []sim.Running{{Job: r1, Start: 0, EstEnd: 100}, {Job: r2, Start: 0, EstEnd: 30}}
	// t=5: J1 waits for R1's estimate, J2 fits in the hole R2 leaves at
	// 30, J3 only behind J1.
	pass(5, 1, both, pathRebuild, []int64{100, 30, 200})
	// t=7, nothing changed: the pass keeps the profile.
	pass(7, 1, both, pathReuse, []int64{100, 30, 200})
	// t=10: R1 ends 90 s before its estimate, so the pass repairs. J1
	// moves up to 30 and takes the whole machine there, so J2 moves
	// later, from 30 to 130.
	pass(10, 4, both[1:], pathRepairMoved, []int64{30, 130, 130})
}

// stepWatch records the most steps a scratch profile held after any
// placement or reservation.
type stepWatch struct {
	profile.Kernel
	most *int
}

func (w stepWatch) Reserve(nodes int, start, end int64) {
	w.Kernel.Reserve(nodes, start, end)
	*w.most = max(*w.most, w.StepCount())
}

func (w stepWatch) StartMany(reqs []profile.StartReq, starts []int64) []int64 {
	starts = w.Kernel.StartMany(reqs, starts)
	*w.most = max(*w.most, w.StepCount())
	return starts
}

// TestConservativeReuseRate pins how often reuse happens on the
// exact-estimate CTC workload (the setting of Table 6), where nothing
// completes early and most passes follow a submission or a completion
// at its estimate: 31 rebuilds in 2,539 passes, where every pass used to
// rebuild. The dead history the kept profile carries must stay bounded:
// the profile never outgrows 1,024 steps.
func TestConservativeReuseRate(t *testing.T) {
	const nodes = 256
	jobs, _, err := cli.Load(cli.LoadOptions{Kind: "ctc", Jobs: 2000, MachineNodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats profile.Stats
	most := 0
	c, err := New(OrderFCFS, StartConservative, Config{MachineNodes: nodes,
		Hooks: telemetry.Hooks{ProfileStats: &stats},
		ProfileFactory: func(n int, from int64) profile.Kernel {
			return stepWatch{profile.NewTree(n, from), &most}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, trace.WithExactEstimates(jobs), c, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%d resets in %d passes", stats.Resets, stats.Passes), "31 resets in 2539 passes"; got != want {
		t.Errorf("%s, want %s", got, want)
	}
	if most == 0 || most > 1024 {
		t.Errorf("the kept profile held up to %d steps, want 1 to 1,024", most)
	}
}

// rebuildEveryPass forces its conservative start policy to rebuild at
// every pass: hiding and restoring the head moves the index's change
// counter, which no kept profile survives.
type rebuildEveryPass struct{ *ConservativeStarter }

func (s rebuildEveryPass) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, m, limit int) []*job.Job {
	if head, _ := ix.First(); head != nil {
		ix.Hide(head)
		ix.UnhideAll()
	}
	return s.ConservativeStarter.PickMany(ix, now, free, running, m, limit)
}

// TestConservativeReuseTracesMatchRebuild compares whole event streams —
// passes, backfill attempts, starts with their depth and head — of runs
// that reuse kept profiles with runs that rebuild at every pass.
func TestConservativeReuseTracesMatchRebuild(t *testing.T) {
	const nodes = 16
	trace := func(o OrderName, w equivWorkload, rebuild bool) []telemetry.Event {
		buf := &telemetry.Buffer{}
		c, err := New(o, StartConservative, Config{MachineNodes: nodes, Hooks: telemetry.Hooks{Recorder: buf}})
		if err != nil {
			t.Fatal(err)
		}
		if rebuild {
			c = WrapStarter(c, func(st Starter) Starter { return rebuildEveryPass{st.(*ConservativeStarter)} })
		}
		if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(w.jobs), c,
			sim.Options{Validate: true, Recorder: buf}); err != nil {
			t.Fatal(err)
		}
		return buf.Events()
	}
	for _, o := range []OrderName{OrderFCFS, OrderPSRS, OrderSMARTFFIA} {
		for _, w := range reuseWorkloads(nodes) {
			kept, rebuilt := trace(o, w, false), trace(o, w, true)
			backfills := 0
			for _, ev := range kept {
				if ev.Type == telemetry.EventBackfill {
					backfills++
				}
			}
			if backfills == 0 {
				t.Fatalf("%s %s: no backfill events traced", o, w.name)
			}
			if len(kept) != len(rebuilt) {
				t.Fatalf("%s %s: %d events with kept profiles, %d rebuilding", o, w.name, len(kept), len(rebuilt))
			}
			for i := range kept {
				if kept[i] != rebuilt[i] {
					t.Fatalf("%s %s: event %d with kept profiles %+v, rebuilding %+v", o, w.name, i, kept[i], rebuilt[i])
				}
			}
		}
	}
}
