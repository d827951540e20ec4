package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
)

// After an early completion ConservativeStarter repairs its kept
// profile instead of rebuilding it (DESIGN.md §11 "Kept profiles"). The
// tests below run it next to a twin that rebuilds at every pass and
// compare the two after every pass, and pin the repair's cases by hand.

// repairOracle wraps a conservative start policy and, after each of its
// passes, runs a twin on the same inputs that rebuilds its profile from
// scratch. Picks and decisions must be equal. The policy's kept fits
// must start with the twin's (the twin keeps only the jobs it walked),
// every kept fit must equal a rebuild's on the brute-force Reference,
// and so must the kept profile from now on.
type repairOracle struct {
	*ConservativeStarter
	twin  *ConservativeStarter
	t     *testing.T
	paths [pathRepairMoved + 1]int
}

// noPass marks a PickMany that returned before choosing a profile.
const noPass passPath = 255

func newRepairOracle(t *testing.T, s *ConservativeStarter) *repairOracle {
	return &repairOracle{ConservativeStarter: s, twin: NewConservativeStarter(s.maxDepth), t: t}
}

func (o *repairOracle) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, m, limit int) []*job.Job {
	t := o.t
	t.Helper()
	o.path = noPass
	got := slices.Clone(o.ConservativeStarter.PickMany(ix, now, free, running, m, limit))
	want := o.twin.pickRebuilding(ix, now, free, running, m, limit)
	if !slices.Equal(got, want) {
		t.Fatalf("t=%d: picked %v, a rebuild picks %v", now, got, want)
	}
	if !slices.Equal(o.decs, o.twin.decs) {
		t.Fatalf("t=%d: decisions %+v, a rebuild's %+v", now, o.decs, o.twin.decs)
	}
	if o.path == noPass {
		return got
	}
	o.paths[o.path]++
	kp := &o.keep
	if !kp.valid {
		return got
	}
	if n := len(o.twin.keep.fits); len(kp.fits) < n || !slices.Equal(kp.fits[:n], o.twin.keep.fits) {
		t.Fatalf("t=%d (%v): kept fits %v, a rebuild keeps %v", now, o.path, kp.fits, o.twin.keep.fits)
	}
	// The state the next pass starts from: the picks run, the rest wait.
	next := slices.DeleteFunc(ix.AppendOrdered(nil), func(j *job.Job) bool { return slices.Contains(got, j) })
	if len(kp.jobs) != len(kp.fits) || !slices.Equal(kp.jobs, next[:len(kp.jobs)]) {
		t.Fatalf("t=%d (%v): kept jobs %v, the queue starts %v", now, o.path, kp.jobs, next)
	}
	fits, rebuilt := rebuiltFits(kp.jobs, now, kp.running, m, nil)
	if !slices.Equal(kp.fits, fits) {
		t.Fatalf("t=%d (%v): kept fits %v, a rebuild gives %v", now, o.path, kp.fits, fits)
	}
	for _, at := range breakpoints(now, o.scratch.String(), rebuilt.String()) {
		if a, b := o.scratch.FreeAt(at), rebuilt.FreeAt(at); a != b {
			t.Fatalf("t=%d (%v): kept profile has %d free at %d, a rebuild %d\nkept:    %s\nrebuilt: %s",
				now, o.path, a, at, b, o.scratch, rebuilt)
		}
	}
	return got
}

// breakpoints returns now and every step time ≥ now of the rendered
// profiles, in order.
func breakpoints(now int64, rendered ...string) []int64 {
	out := []int64{now}
	for _, r := range rendered {
		for _, st := range strings.Fields(strings.TrimSuffix(strings.TrimPrefix(r, "profile["), "]")) {
			at, _, _ := strings.Cut(st, ":")
			if v, err := strconv.ParseInt(at, 10, 64); err == nil && v >= now {
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// earlyJobs is a random workload where two jobs in three end well before
// their estimates (at 5–60 % of it), so most completions are early ones.
// The others run to their estimates: a reservation kept at such an end
// comes due in a later pass, which starts the job without a test.
func earlyJobs(seed int64, n, nodes int) []*job.Job {
	r := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, n)
	var at int64
	for i := range jobs {
		at += int64(r.Intn(25))
		est := int64(20 + r.Intn(600))
		run := est
		if r.Intn(3) > 0 {
			run = max(1, est*int64(5+r.Intn(56))/100)
		}
		jobs[i] = &job.Job{ID: job.ID(i), Submit: at, Nodes: 1 + r.Intn(nodes), Estimate: est, Runtime: run}
	}
	return jobs
}

// TestConservativeRepairMatchesRebuild is the repair differential: FCFS,
// PSRS and SMART orders, bare and behind a Filter (ReservedStarter),
// over workloads full of early completions; the oracle checks every
// pass. Seeds 3 and 4 add outages, which kill running jobs (they leave
// before their estimates too) and cut the free nodes below what the
// profile holds, so that passes stop before the end of the kept prefix.
// Every row must repair, with and without a moved reservation.
func TestConservativeRepairMatchesRebuild(t *testing.T) {
	const nodes = 16
	cal := equivCalendar(t, nodes)
	outages := sim.Options{Validate: true,
		Failures: []sim.Failure{{At: 300, Nodes: 6, Duration: 200}, {At: 900, Nodes: nodes, Duration: 50},
			{At: 1500, Nodes: 3, Duration: 400}, {At: 2500, Nodes: 10, Duration: 300}},
		Resubmit: sim.ResubmitPolicy{MaxResubmits: 2, BackoffBase: 30}}
	for _, o := range []OrderName{OrderFCFS, OrderPSRS, OrderSMARTFFIA, OrderSMARTNFIW} {
		for _, filtered := range []bool{false, true} {
			name := string(o)
			if filtered {
				name += "+reservations"
			}
			var paths [pathRepairMoved + 1]int
			for seed := int64(1); seed <= 4; seed++ {
				c, err := New(o, StartConservative, Config{MachineNodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				oracle := newRepairOracle(t, c.start.(*ConservativeStarter))
				c = WrapStarter(c, func(Starter) Starter { return oracle })
				if filtered {
					c = WrapStarter(c, func(st Starter) Starter { return NewReservedStarter(st, cal) })
				}
				opt := sim.Options{Validate: true}
				if seed > 2 {
					opt = outages
				}
				if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, earlyJobs(seed, 300, nodes), c, opt); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				for p, n := range oracle.paths {
					paths[p] += n
				}
			}
			t.Logf("%s: %d rebuilds, %d reuses, %d repairs, %d repairs with a move",
				name, paths[pathRebuild], paths[pathReuse], paths[pathRepair], paths[pathRepairMoved])
			if paths[pathRepair] == 0 || paths[pathRepairMoved] == 0 {
				t.Errorf("%s: %d repairs and %d with a move, want both", name, paths[pathRepair], paths[pathRepairMoved])
			}
		}
	}
}

// repairPass is one pass of a pinned repair case: the running set, and
// what the pass must start, how it must come by its profile and which
// fits it must keep.
type repairPass struct {
	now     int64
	running []sim.Running
	free    int // 0: the machine less the running jobs
	starts  []*job.Job
	path    passPath
	fits    []int64
}

// runRepairCase drives a conservative starter through the passes over
// queue, with the repair oracle checking each, and returns the oracle;
// the engine's part — removing the picks from the queue — is done here.
func runRepairCase(t *testing.T, nodes int, queue []*job.Job, passes []repairPass) *repairOracle {
	t.Helper()
	ix := queueIndex(queue...)
	o := newRepairOracle(t, NewConservativeStarter(0))
	for _, p := range passes {
		free := p.free
		if free == 0 {
			free = nodes
			for _, r := range p.running {
				free -= r.Job.Nodes
			}
		}
		got := o.PickMany(ix, p.now, free, p.running, nodes, UnlimitedWindow)
		if !slices.Equal(got, p.starts) {
			t.Fatalf("t=%d: started %v, want %v", p.now, got, p.starts)
		}
		if o.path != p.path {
			t.Errorf("t=%d: the pass took path %v, want %v", p.now, o.path, p.path)
		}
		if !slices.Equal(o.keep.fits, p.fits) {
			t.Errorf("t=%d: reservations %v, want %v", p.now, o.keep.fits, p.fits)
		}
		for _, j := range got {
			ix.Remove(j)
		}
	}
	return o
}

// queueIndex is an index holding jobs in order.
func queueIndex(jobs ...*job.Job) *queue.Index {
	ix := queue.NewIndex()
	for _, j := range jobs {
		ix.Push(j)
	}
	return ix
}

// runEntry builds a running set entry started at 0.
func runEntry(j *job.Job, estEnd int64) sim.Running { return sim.Running{Job: j, EstEnd: estEnd} }

// TestConservativeRepairCases pins the shapes of a repair on a 10-node
// machine where running jobs end long before their estimates. In each
// case a narrow job waits at the tail, behind a reservation it cannot
// share, so that the first pass walks the queue.
func TestConservativeRepairCases(t *testing.T) {
	const nodes = 10
	t.Run("head moves first", func(t *testing.T) {
		// J1 waits for R2's estimate at 50. R2 ends at 10, so J1 starts
		// there; J2 and T are placed again behind it.
		r1 := &job.Job{ID: 1, Nodes: 3, Estimate: 100, Runtime: 60}
		r2 := &job.Job{ID: 2, Nodes: 5, Estimate: 50, Runtime: 10}
		j1 := &job.Job{ID: 11, Nodes: 6, Estimate: 20}
		j2 := &job.Job{ID: 12, Nodes: 8, Estimate: 10}
		tail := &job.Job{ID: 13, Nodes: 2, Estimate: 1000}
		both := []sim.Running{runEntry(r1, 100), runEntry(r2, 50)}
		runRepairCase(t, nodes, []*job.Job{j1, j2, tail}, []repairPass{
			{now: 5, running: both, path: pathRebuild, fits: []int64{50, 100, 70}},
			{now: 10, running: both[:1], starts: []*job.Job{j1}, path: pathRepairMoved},
		})
	})
	r1 := &job.Job{ID: 1, Nodes: 4, Estimate: 100, Runtime: 60}
	r2 := &job.Job{ID: 2, Nodes: 4, Estimate: 50, Runtime: 10}
	both := []sim.Running{runEntry(r1, 100), runEntry(r2, 50)}
	t.Run("only the last kept job moves", func(t *testing.T) {
		// R2 ends at 10 and leaves 6 nodes free until R1's estimate at
		// 100: too few for J1, too short a window for T, enough for J3,
		// kept behind them at 50.
		j1 := &job.Job{ID: 11, Nodes: 10, Estimate: 10}
		tail := &job.Job{ID: 12, Nodes: 2, Estimate: 97}
		j3 := &job.Job{ID: 13, Nodes: 6, Estimate: 30}
		runRepairCase(t, nodes, []*job.Job{j1, tail, j3}, []repairPass{
			{now: 5, running: both, path: pathRebuild, fits: []int64{100, 110, 50}},
			{now: 10, running: both[:1], starts: []*job.Job{j3}, path: pathRepairMoved, fits: []int64{100, 110}},
		})
	})
	t.Run("no kept job moves", func(t *testing.T) {
		// Without J3, the kept profile only gets R2's capacity back.
		j1 := &job.Job{ID: 11, Nodes: 10, Estimate: 10}
		tail := &job.Job{ID: 12, Nodes: 2, Estimate: 97}
		runRepairCase(t, nodes, []*job.Job{j1, tail}, []repairPass{
			{now: 5, running: both, path: pathRebuild, fits: []int64{100, 110}},
			{now: 10, running: both[:1], path: pathRepair, fits: []int64{100, 110}},
			{now: 12, running: both[:1], path: pathReuse, fits: []int64{100, 110}},
		})
	})
	t.Run("a kept job the pass does not reach moves", func(t *testing.T) {
		// At 30, R3 ends at its estimate and R2 20 s before it, while an
		// outage takes 3 nodes. J1, due at 30, takes the 4 nodes left,
		// and the pass stops there. J2 was kept at 50, but R2's nodes
		// let it start at 30: the kept fits from J2 on are dropped.
		r1 := &job.Job{ID: 1, Nodes: 3, Estimate: 100, Runtime: 100}
		r2 := &job.Job{ID: 2, Nodes: 3, Estimate: 50, Runtime: 30}
		r3 := &job.Job{ID: 3, Nodes: 3, Estimate: 30, Runtime: 30}
		j1 := &job.Job{ID: 11, Nodes: 4, Estimate: 100}
		j2 := &job.Job{ID: 12, Nodes: 3, Estimate: 20}
		tail := &job.Job{ID: 13, Nodes: 1, Estimate: 1000}
		all := []sim.Running{runEntry(r1, 100), runEntry(r2, 50), runEntry(r3, 30)}
		runRepairCase(t, nodes, []*job.Job{j1, j2, tail}, []repairPass{
			{now: 5, running: all, path: pathRebuild, fits: []int64{30, 50, 70}},
			{now: 30, running: all[:1], free: 4, starts: []*job.Job{j1}, path: pathRepairMoved},
		})
	})
	t.Run("a wider job after a narrower one found no start", func(t *testing.T) {
		// R2 ends at 10, 40 s before its estimate, but R1 still holds 8
		// nodes until 100. N finds no start before 50, so W, wider and
		// longer, is not tested; X, wider but shorter, is, and so is T,
		// which X's reservation keeps from starting before 115. Each
		// stays.
		r1 := &job.Job{ID: 1, Nodes: 8, Estimate: 100, Runtime: 100}
		r2 := &job.Job{ID: 2, Nodes: 1, Estimate: 50, Runtime: 10}
		n := &job.Job{ID: 11, Nodes: 3, Estimate: 10}
		w := &job.Job{ID: 12, Nodes: 4, Estimate: 20}
		x := &job.Job{ID: 13, Nodes: 6, Estimate: 5}
		tail := &job.Job{ID: 14, Nodes: 1, Estimate: 1000}
		both := []sim.Running{runEntry(r1, 100), runEntry(r2, 50)}
		o := runRepairCase(t, nodes, []*job.Job{n, w, x, tail}, []repairPass{
			{now: 5, running: both, path: pathRebuild, fits: []int64{100, 100, 110, 115}},
			{now: 10, running: both[:1], path: pathRepair, fits: []int64{100, 100, 110, 115}},
		})
		// The frontier reaches X's width and no further: N's estimate up
		// to the width below X's, X's at its own.
		if rp := &o.rep; rp.hi != 6 || !slices.Equal(rp.minEst[3:7], []int64{10, 10, 10, 5}) {
			t.Errorf("frontier up to width %d: %v, want up to 6: [10 10 10 5] from width 3", rp.hi, rp.minEst[3:rp.hi+1])
		}
	})
	t.Run("two jobs depart in one pass", func(t *testing.T) {
		// R1 and R2 both end at 20: J1 starts at once, J2 moves up behind
		// it, and T starts beside them.
		r3 := &job.Job{ID: 3, Nodes: 1, Estimate: 200, Runtime: 200}
		j1 := &job.Job{ID: 11, Nodes: 8, Estimate: 10}
		j2 := &job.Job{ID: 12, Nodes: 5, Estimate: 40}
		tail := &job.Job{ID: 13, Nodes: 1, Estimate: 1000}
		all := append(both, runEntry(r3, 200))
		runRepairCase(t, nodes, []*job.Job{j1, j2, tail}, []repairPass{
			{now: 5, running: all, path: pathRebuild, fits: []int64{100, 50, 90}},
			{now: 20, running: all[2:], starts: []*job.Job{j1, tail}, path: pathRepairMoved, fits: []int64{30}},
		})
	})
}

func (p passPath) String() string {
	switch p {
	case pathRebuild:
		return "rebuild"
	case pathReuse:
		return "reuse"
	case pathRepair:
		return "repair"
	case pathRepairMoved:
		return "repair with a move"
	}
	return fmt.Sprintf("passPath(%d)", uint8(p))
}
