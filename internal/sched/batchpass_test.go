package sched

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// A production pass (Starter.PickMany against the order's queue.Index,
// Composite's memo, the filtering wrappers' hide-and-delegate loop,
// Switching's two composites) is specified to be observationally
// equivalent to the paper's literal protocol — order the queue, pick ONE
// job, start it, decide again until nothing starts: the same jobs start
// at the same instants with the same classified decisions, on every grid
// algorithm, with and without announced drains, behind every wrapper, and
// regardless of which profile kernel backs the starter's scratch state.
// The literal protocol lives in reference_test.go; these tests pin the
// equivalence end to end through the engine.

// accounted decorates a production scheduler for an engine run and checks
// after every Startable call that the queue is whole again: QueueLen and
// the visible length of every order index must equal submitted − started
// (an engine run withdraws nothing), so a pass that returns with a job
// still hidden fails the run at the call that leaked it.
type accounted struct {
	sim.Scheduler
	t                  *testing.T
	submitted, started int
}

func (a *accounted) Submit(j *job.Job, now int64) {
	a.submitted++
	a.Scheduler.Submit(j, now)
}

func (a *accounted) JobStarted(j *job.Job, now int64) {
	a.started++
	a.Scheduler.JobStarted(j, now)
}

func (a *accounted) Startable(now int64, free int, running []sim.Running) []*job.Job {
	picked := a.Scheduler.Startable(now, free, running)
	want := a.submitted - a.started
	if got := a.Scheduler.QueueLen(); got != want {
		a.t.Fatalf("%s at t=%d: QueueLen %d after Startable, want %d (submitted %d − started %d)",
			a.Name(), now, got, want, a.submitted, a.started)
	}
	for _, ix := range orderIndexes(a.Scheduler) {
		if ix.Len() != want {
			a.t.Fatalf("%s at t=%d: an order index shows %d of %d waiting jobs after Startable: a pass leaked a Hide",
				a.Name(), now, ix.Len(), want)
		}
	}
	return picked
}

func (a *accounted) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	return a.Scheduler.(sim.DecisionExplainer).LastStartDecision(j)
}

// orderIndexes returns the raw queue indexes behind a production
// scheduler, without the replan check OrderedIter would run.
func orderIndexes(s sim.Scheduler) []*queue.Index {
	raw := func(o Orderer) *queue.Index {
		switch o := o.(type) {
		case *FCFSOrder:
			return o.ix
		case *PSRSOrder:
			return o.ix
		case *SMARTOrder:
			return o.ix
		}
		panic(fmt.Sprintf("sched: no index known for order policy %T", o))
	}
	switch s := s.(type) {
	case *Composite:
		return []*queue.Index{raw(s.order)}
	case *Switching:
		return []*queue.Index{raw(s.day.order), raw(s.night.order)}
	}
	return nil
}

// runTraced simulates jobs under alg and returns the schedule plus the
// recorded start events (decisions included). EventPass/EventBackfill
// counts legitimately differ between the protocols — a production pass
// is one Startable call and one walk — so only start events are compared.
func runTraced(t *testing.T, alg sim.Scheduler, jobs []*job.Job, nodes int) (*sim.Schedule, []telemetry.Event) {
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

// gridCase is one algorithm configuration under test.
type gridCase struct {
	name string
	mk   func() (*Composite, error)
}

// batchGridCases enumerates the algorithm configurations under test:
// every grid cell, conservative unbounded and depth-bounded, with and
// without announced maintenance windows — all built by New with the
// given scratch-profile backend (nil = the default kernel).
func batchGridCases(nodes int, factory ProfileFactory) []gridCase {
	drains := []sim.Failure{
		{At: 120, Nodes: nodes, Duration: 60},
		{At: 400, Nodes: nodes / 2, Duration: 100},
	}
	var cases []gridCase
	add := func(name string, o OrderName, s StartName, cfg Config) {
		cfg.MachineNodes, cfg.ProfileFactory = nodes, factory
		cases = append(cases, gridCase{name, func() (*Composite, error) { return New(o, s, cfg) }})
	}
	for _, o := range GridOrders() {
		for _, s := range GridStarts() {
			add(fmt.Sprintf("%s/%s", o, s), o, s, Config{})
		}
	}
	add("FCFS/Backfilling-depth3", OrderFCFS, StartConservative, Config{MaxBackfillDepth: 3})
	add("FCFS/Backfilling-drains", OrderFCFS, StartConservative, Config{Announced: drains})
	add("FCFS/EASY-drains", OrderFCFS, StartEASY, Config{Announced: drains})
	add("GG-drains", OrderGG, StartList, Config{Announced: drains})
	return cases
}

// equivWorkload is one workload of the equivalence gate.
type equivWorkload struct {
	name string
	jobs []*job.Job
}

// equivWorkloads builds the gate's workloads for a machine of the given
// size: random arrival streams, and a deep backlog.
func equivWorkloads(nodes int) []equivWorkload {
	var workloads []equivWorkload
	for seed := int64(1); seed <= 4; seed++ {
		workloads = append(workloads, equivWorkload{fmt.Sprintf("seed %d", seed),
			randomJobs(rand.New(rand.NewSource(seed)), 250, nodes)})
	}
	// A long stream: its arrivals span more than two hours, so a
	// Switching window with edges at 1:00 and 2:00 changes regime twice
	// with a full queue on either side.
	workloads = append(workloads, equivWorkload{"long",
		randomJobs(rand.New(rand.NewSource(6)), 600, nodes)})
	// A deep backlog, everything submitted at t=0: wide jobs at the head,
	// narrow ones behind them. Backfilling and Garey&Graham start jobs
	// from the middle of a long queue while the wide heads drain one at a
	// time. The stragglers carry the clock past the announced drain
	// windows and the reserved calendar windows: those are announced, not
	// injected, so no other event would wake the scheduler after them.
	backlog := equivWorkload{name: "backlog"}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		j := &job.Job{ID: job.ID(i), Nodes: 1 + r.Intn(3), Estimate: int64(20 + r.Intn(200))}
		if i < 60 {
			j.Nodes = nodes/2 + 1 + r.Intn(nodes/2)
		}
		j.Runtime = 1 + r.Int63n(j.Estimate)
		backlog.jobs = append(backlog.jobs, j)
	}
	for at := int64(600); at <= 3000; at += 200 {
		backlog.jobs = append(backlog.jobs, &job.Job{ID: job.ID(len(backlog.jobs)),
			Submit: at, Nodes: 1, Estimate: 10, Runtime: 10})
	}
	return append(workloads, backlog)
}

// equivCalendar is a three-entry reservation calendar whose windows bite
// on every gate workload: half the machine early, the whole machine for
// a while, a quarter of it for a long stretch.
func equivCalendar(t *testing.T, nodes int) *Calendar {
	t.Helper()
	cal, err := NewCalendar(nodes, []AdvanceReservation{
		{Name: "half", Nodes: nodes / 2, Start: 150, End: 450},
		{Name: "all", Nodes: nodes, Start: 900, End: 1100},
		{Name: "quarter", Nodes: nodes / 4, Start: 1400, End: 2600},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// checkAgainstReference runs one gate row over every workload: mk builds
// a fresh production scheduler and, from a second fresh instance, its
// reference. Schedules and start events (time, free-node accounting,
// reason, depth, head, shadow, spare) must be identical, and the
// production run must pass the queue accounting of `accounted`.
func checkAgainstReference(t *testing.T, name string, nodes int, mk func() (production, reference sim.Scheduler)) {
	t.Helper()
	for _, w := range equivWorkloads(nodes) {
		production, reference := mk()
		ps, pev := runTraced(t, &accounted{Scheduler: production, t: t}, w.jobs, nodes)
		rs, rev := runTraced(t, reference, w.jobs, nodes)

		if pf, rf := scheduleFingerprint(ps), scheduleFingerprint(rs); pf != rf {
			t.Fatalf("%s %s: production schedule diverged from the reference\nproduction: %s\nreference:  %s",
				w.name, name, pf, rf)
		}
		if len(pev) != len(rev) {
			t.Fatalf("%s %s: %d start events in production, %d in the reference",
				w.name, name, len(pev), len(rev))
		}
		for i := range pev {
			if pev[i] != rev[i] {
				t.Fatalf("%s %s: start event %d diverged\nproduction: %+v\nreference:  %+v",
					w.name, name, i, pev[i], rev[i])
			}
		}
	}
}

// compositeRow adapts a Composite constructor to a gate row.
func compositeRow(t *testing.T, mk func() (*Composite, error)) func() (sim.Scheduler, sim.Scheduler) {
	return func() (sim.Scheduler, sim.Scheduler) {
		production, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		shared, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		return production, referenceOf(shared)
	}
}

// TestBatchedPassesMatchSequential is the end-to-end equivalence gate:
// every algorithm configuration, the same configurations behind a
// ReservedStarter whose calendar bites, and Switching with a replanning
// day order over a Garey&Graham night, each against the test-only
// reference loop over several random workloads and a deep backlog. (The
// rows for internal/policy's course-window wrapper are in
// policy_equiv_test.go: policy imports this package.)
func TestBatchedPassesMatchSequential(t *testing.T) {
	const nodes = 16
	for _, tc := range batchGridCases(nodes, nil) {
		checkAgainstReference(t, tc.name, nodes, compositeRow(t, tc.mk))
	}

	cal := equivCalendar(t, nodes)
	for _, tc := range batchGridCases(nodes, nil) {
		reserved := func() (*Composite, error) {
			c, err := tc.mk()
			if err != nil {
				return nil, err
			}
			return WrapStarter(c, func(st Starter) Starter { return NewReservedStarter(st, cal) }), nil
		}
		checkAgainstReference(t, tc.name+"+reservations", nodes, compositeRow(t, reserved))
	}

	// Day regime 1:00–2:00, so the "long" workload crosses both edges.
	window := objective.Window{StartHour: 1, EndHour: 2}
	for _, day := range []struct {
		order OrderName
		start StartName
	}{{OrderSMARTFFIA, StartEASY}, {OrderPSRS, StartConservative}} {
		mk := func() *Switching {
			s, err := NewSwitching(window, day.order, day.start, OrderGG, StartList, Config{MachineNodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		checkAgainstReference(t, mk().Name(), nodes, func() (sim.Scheduler, sim.Scheduler) {
			return mk(), referenceOfSwitching(mk())
		})
	}
}

// workloadsChanged counts the gate workloads on which two schedulers
// place some job differently — the non-vacuity probe for a wrapper row:
// a wrapper that changes nothing only re-tests the policy under it.
func workloadsChanged(t *testing.T, nodes int, a, b func() sim.Scheduler) (changed, total int) {
	t.Helper()
	workloads := equivWorkloads(nodes)
	for _, w := range workloads {
		as, _ := runTraced(t, a(), w.jobs, nodes)
		bs, _ := runTraced(t, b(), w.jobs, nodes)
		if scheduleFingerprint(as) != scheduleFingerprint(bs) {
			changed++
		}
	}
	return changed, len(workloads)
}

// TestGateWrappersBite is the non-vacuity check on the wrapper rows
// above: the calendar must change the schedule of every workload, and the
// Switching window must hand decisions to both regimes.
func TestGateWrappersBite(t *testing.T) {
	const nodes = 16
	cal := equivCalendar(t, nodes)
	plain := func() sim.Scheduler {
		c, err := New(OrderFCFS, StartEASY, Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reserved := func() sim.Scheduler {
		return WrapStarter(plain().(*Composite), func(st Starter) Starter { return NewReservedStarter(st, cal) })
	}
	if changed, total := workloadsChanged(t, nodes, plain, reserved); changed != total {
		t.Errorf("the gate's calendar changed the schedule of %d of %d workloads, want all", changed, total)
	}

	s, err := NewSwitching(objective.Window{StartHour: 1, EndHour: 2},
		OrderSMARTFFIA, StartEASY, OrderGG, StartList, Config{MachineNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range equivWorkloads(nodes) {
		if w.name != "long" {
			continue
		}
		_, starts := runTraced(t, s, w.jobs, nodes)
		byStarter := map[string]int{}
		for _, ev := range starts {
			byStarter[ev.Starter]++
		}
		if byStarter[string(StartEASY)] == 0 || byStarter[string(StartList)] == 0 {
			t.Errorf("starts per regime = %v, want both the day (EASY) and the night (List) regime to decide", byStarter)
		}
	}
}

// TestProfileBackendIndependence pins that whole schedules do not depend
// on which kernel backs the starters' scratch profiles: the tree
// (default) and the brute-force reference oracle must yield identical
// schedules and start events for every configuration. At this size the
// tree's profiles stay small; the whole-schedule gate across many blocks
// is TestTreeModesScheduleIdentically in internal/profile.
func TestProfileBackendIndependence(t *testing.T) {
	const nodes = 16
	factories := []struct {
		name string
		f    ProfileFactory
	}{
		{"tree", nil},
		{"reference", func(n int, from int64) profile.Kernel { return profile.NewReference(n, from) }},
	}
	jobs := randomJobs(rand.New(rand.NewSource(7)), 200, nodes)
	cases := make([][]gridCase, len(factories))
	for fi, fac := range factories {
		cases[fi] = batchGridCases(nodes, fac.f)
	}
	for ci, tc := range cases[0] {
		var baseSched string
		var baseEv []telemetry.Event
		for fi, fac := range factories {
			alg, err := cases[fi][ci].mk()
			if err != nil {
				t.Fatal(err)
			}
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

// TestReferenceSharesNoDecisionFunction is the non-vacuity check on the
// gate above: the reference must not reach any function through which
// production decides what starts, or the gate would compare a path with
// itself. A production decision function is any function or method
// declared in this package's non-test files that returns a job or a list
// of jobs (PickMany and its helpers, the wrapper loop, Startable); the
// reference file must not call a single one of them by name.
func TestReferenceSharesNoDecisionFunction(t *testing.T) {
	returnsJobs := func(fn *ast.FuncDecl) bool {
		if fn.Type.Results == nil {
			return false
		}
		for _, res := range fn.Type.Results.List {
			typ := res.Type
			if arr, ok := typ.(*ast.ArrayType); ok {
				typ = arr.Elt
			}
			if star, ok := typ.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Job" {
					return true
				}
			}
		}
		return false
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	decisions := map[string]bool{}
	var reference *ast.File
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if name == "reference_test.go" {
				reference = file
			}
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && returnsJobs(fn) {
					decisions[fn.Name.Name] = true
				}
			}
		}
	}
	for _, want := range []string{"PickMany", "PickAdmitted", "Startable", "pickOneIx", "drainPickOneIx"} {
		if !decisions[want] {
			t.Errorf("production decision function %s not found: the scan is looking at the wrong files", want)
		}
	}
	if reference == nil {
		t.Fatal("reference_test.go not found")
	}
	picks := 0
	ast.Inspect(reference, func(n ast.Node) bool {
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "Pick" {
			picks++
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
		}
		if decisions[callee] {
			t.Errorf("%s: the reference calls production decision function %s",
				fset.Position(call.Pos()), callee)
		}
		return true
	})
	if picks < 5 {
		t.Errorf("reference declares %d Pick methods, want the four start policies and the filtering wrapper", picks)
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
