package sched

import (
	"cmp"
	"slices"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Instrumented is implemented by start policies that accept telemetry
// hooks: a trace recorder for backfill-attempt events and an
// availability-profile operation counter for their scratch profiles.
// sched.New attaches Config.Hooks to every instrumented starter.
type Instrumented interface {
	Instrument(h telemetry.Hooks)
}

// FailureAware is implemented by start policies that can plan around
// announced capacity drains (maintenance windows): the windows become
// capacity steps in the reservation profile, so the policy reserves
// around them instead of starting jobs the drain would abort. Surprise
// failures are, by definition, not announced — only scheduled
// maintenance is legitimate scheduler knowledge.
type FailureAware interface {
	// Announce hands the policy the maintenance windows, as sim.Failure
	// values (the same shape faults.Plan.Announced produces). The slice
	// must not be mutated afterwards.
	Announce(windows []sim.Failure)
}

// reserveDrains carves announced maintenance windows out of a reservation
// profile via clamped reservation: a drain takes its nodes regardless of
// how much the profile thinks is free (overlap with running jobs shows up
// as aborts at run time, not as a profile invariant violation). Windows
// are clipped to start at now. It returns the number of reservations
// made.
func reserveDrains(p profile.Kernel, announced []sim.Failure, now int64) (n int) {
	for _, f := range announced {
		end := job.AddSat(f.At, f.Duration)
		if end <= now {
			continue
		}
		start := f.At
		if start < now {
			start = now
		}
		if end > start {
			p.ReserveClamped(f.Nodes, start, end)
			n++
		}
	}
	return n
}

// drainsPending reports whether any announced window still extends past
// `now` (only those can influence scheduling decisions).
func drainsPending(announced []sim.Failure, now int64) bool {
	for _, f := range announced {
		if job.AddSat(f.At, f.Duration) > now {
			return true
		}
	}
	return false
}

// decided stashes the classifications of the current pass's successful
// picks so the engine (through Composite's sim.DecisionExplainer) can
// merge each one into its job's start event. A pass starts many jobs
// before the engine asks for any decision, so the stash holds the whole
// pass; every PickMany resets it on entry. Like the starters themselves,
// it is owned by one simulation goroutine.
type decided struct {
	jobs []*job.Job
	decs []telemetry.Decision
}

func (d *decided) reset() {
	d.jobs, d.decs = d.jobs[:0], d.decs[:0]
}

func (d *decided) stash(j *job.Job, dec telemetry.Decision) {
	d.jobs = append(d.jobs, j)
	d.decs = append(d.decs, dec)
}

// LastStartDecision implements sim.DecisionExplainer for the embedding
// starter. Newest entry wins (a pass never picks the same job twice, but
// the scan order keeps the semantics of the old single-slot stash).
func (d *decided) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	if j == nil {
		return telemetry.Decision{}, false
	}
	for i := len(d.jobs) - 1; i >= 0; i-- {
		if d.jobs[i] == j {
			return d.decs[i], true
		}
	}
	return telemetry.Decision{}, false
}

// ensureScratch reuses (after Reset) or creates a starter's scratch
// profile with the configured backend, attaching the op counters.
func ensureScratch(scratch profile.Kernel, f ProfileFactory, stats *profile.Stats, nodes int, now int64) profile.Kernel {
	if scratch == nil {
		scratch = makeScratch(f, nodes, now)
		scratch.SetStats(stats)
		return scratch
	}
	scratch.Reset(nodes, now)
	return scratch
}

// ListStarter implements the greedy list schedule of Section 5.1: the
// next job in the list is started as soon as the necessary resources are
// available; the head is never skipped.
type ListStarter struct {
	decided
	picked    []*job.Job
	interrupt func() bool
}

// NewListStarter returns the strict list start policy.
func NewListStarter() *ListStarter { return &ListStarter{} }

// Name implements Starter.
func (*ListStarter) Name() string { return string(StartList) }

// SetInterrupt implements Interruptible.
func (s *ListStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// PickMany implements Starter: the startable prefix of the queue. The
// head is never skipped, so the pick-one loop starts consecutive heads
// until one does not fit — exactly this prefix.
func (s *ListStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
	s.reset()
	s.picked = s.picked[:0]
	it := ix.Iter()
	for j := it.Next(); j != nil; j = it.Next() {
		if j.Nodes > free || stopAt(s.interrupt, len(s.picked)) {
			break
		}
		if len(s.picked) >= limit {
			break
		}
		s.stash(j, telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
		})
		s.picked = append(s.picked, j)
		free -= j.Nodes
	}
	return s.picked
}

// GareyGrahamStarter implements the classical list scheduling of Garey
// and Graham [6] (Section 5.3): always start the next job for which
// enough resources are available, scanning the whole queue. It needs no
// execution-time knowledge; backfilling is of no benefit because it
// already starts anything that fits.
type GareyGrahamStarter struct {
	decided
	picked    []*job.Job
	interrupt func() bool
}

// NewGareyGrahamStarter returns the free-for-all start policy.
func NewGareyGrahamStarter() *GareyGrahamStarter { return &GareyGrahamStarter{} }

// Name implements Starter.
func (*GareyGrahamStarter) Name() string { return string(StartList) }

// SetInterrupt implements Interruptible.
func (s *GareyGrahamStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// PickMany implements Starter with a single width-pruned forward scan.
// The pick-one loop rescans the remaining queue after every start, but
// free nodes only shrink during a pass, so a job that did not fit earlier
// can never fit later: the rescans would re-skip exactly the jobs this
// scan already skipped. Those skipped (too-wide) jobs are never touched:
// the cursor jumps over each run of misfits in O(log Q). Depth — the
// pick's index in the remaining queue, equal to the skips so far — is
// reconstructed as rank minus prior picks, and Head (the first job that
// failed to fit) is the job ranked exactly at the pick count when the
// first gap appears: until then every lower-ranked job was picked.
func (s *GareyGrahamStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
	s.reset()
	s.picked = s.picked[:0]
	headID := telemetry.None
	headSet := false
	it := ix.Iter()
	for free > 0 && len(s.picked) < limit && !stopNow(s.interrupt) {
		j := it.NextFit(free)
		if j == nil {
			break
		}
		depth := ix.Rank(it.Slot()) - len(s.picked)
		d := telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonScanFit,
			Depth: depth, Head: telemetry.None,
		}
		if depth > 0 {
			if !headSet {
				if h, _ := ix.Select(len(s.picked)); h != nil {
					headID = int64(h.ID)
				}
				headSet = true
			}
			d.Head = headID
		}
		s.stash(j, d)
		s.picked = append(s.picked, j)
		free -= j.Nodes
	}
	return s.picked
}

// EASYStarter implements Lifka's aggressive backfilling [10] as described
// by Feitelson and Weil [4] (Section 5.2): only the queue head holds a
// reservation. A lower-priority job may start now if it fits into the
// free nodes and either terminates (by its estimate) before the head's
// shadow time or only uses nodes the head will not need then. EASY "will
// not postpone the projected execution of the next job in the list" but
// may delay jobs further down — and, because projections use estimates,
// may even delay the head when a running job finishes early.
type EASYStarter struct {
	decided
	// rec receives backfill-attempt events (nil = tracing disabled);
	// stats counts the drain profile's kernel operations.
	rec   telemetry.Recorder
	stats *profile.Stats
	// announced holds the maintenance windows (FailureAware); when any
	// window is still pending, PickMany switches from the sorted-completions
	// shadow computation to a profile-based one that carves the drains
	// out of future capacity.
	announced []sim.Failure
	// scratch is the reusable drain-aware availability profile (only
	// allocated when windows are announced); factory selects its backend.
	scratch profile.Kernel
	factory ProfileFactory
	// picked/runBuf are PickMany's reusable pass buffers.
	picked []*job.Job
	runBuf []sim.Running
	// interrupt is the cooperative cancellation hook (Interruptible).
	interrupt func() bool
}

// NewEASYStarter returns the EASY backfilling start policy.
func NewEASYStarter() *EASYStarter { return &EASYStarter{} }

// Name implements Starter.
func (*EASYStarter) Name() string { return string(StartEASY) }

// SetInterrupt implements Interruptible.
func (s *EASYStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// Instrument implements Instrumented.
func (s *EASYStarter) Instrument(h telemetry.Hooks) {
	s.rec = h.Recorder
	s.stats = h.ProfileStats
	if s.scratch != nil {
		s.scratch.SetStats(s.stats)
	}
}

// Announce implements FailureAware.
func (s *EASYStarter) Announce(windows []sim.Failure) { s.announced = windows }

// PickMany implements Starter as the literal pick-one EASY loop with
// picked jobs hidden pass-locally — except that the drain-aware path
// builds its availability profile once per pass and extends it
// incrementally with each started job, instead of rebuilding it per
// start. The incremental Reserve equals the rebuild: a started job passed
// the profile fit check, so within its reservation window the drains'
// zero-clamp was not active and plain subtraction commutes with the
// clamped drain subtraction.
func (s *EASYStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
	s.reset()
	s.picked = s.picked[:0]
	if ix.Len() == 0 {
		return nil
	}
	if drainsPending(s.announced, now) {
		s.buildDrainProfile(now, running, machineNodes)
		p := s.scratch
		p.BeginPass(now)
		for ix.Len() > 0 && free > 0 && !stopNow(s.interrupt) {
			if len(s.picked) >= limit {
				break
			}
			j := s.drainPickOneIx(ix, now, free)
			if j == nil {
				break
			}
			s.picked = append(s.picked, j)
			free -= j.Nodes
			end := job.AddSat(now, j.Estimate)
			if end <= now {
				end = now + 1
			}
			p.Reserve(j.Nodes, now, end)
			ix.Hide(j)
		}
		p.CommitPass()
		ix.UnhideAll()
		return s.picked
	}
	// The pass's running list in shadow order: sorted once, and each pick
	// inserted where the sort would have put it.
	runLocal := append(s.runBuf[:0], running...)
	slices.SortFunc(runLocal, byEstEnd)
	for ix.Len() > 0 && free > 0 && !stopNow(s.interrupt) {
		if len(s.picked) >= limit {
			break
		}
		j := s.pickOneIx(ix, now, free, runLocal)
		if j == nil {
			break
		}
		s.picked = append(s.picked, j)
		free -= j.Nodes
		r := sim.Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)}
		i, _ := slices.BinarySearchFunc(runLocal, r, byEstEnd)
		runLocal = slices.Insert(runLocal, i, r)
		ix.Hide(j)
	}
	s.runBuf = runLocal[:0]
	ix.UnhideAll()
	return s.picked
}

// pickOneIx is the fault-free EASY decision against an explicit running
// list sorted by byEstEnd: the backfill scan visits only candidates that
// fit the free nodes (width-pruned), never the runs of too-wide jobs
// between them. Depth = the candidate's rank in the remaining (visible)
// order.
func (s *EASYStarter) pickOneIx(ix *queue.Index, now int64, free int, running []sim.Running) *job.Job {
	head, headSlot := ix.First()
	if head == nil {
		return nil
	}
	if head.Nodes <= free {
		s.stash(head, telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
		})
		return head
	}
	if ix.Len() == 1 {
		return nil
	}
	shadow, spare := shadowTime(head, now, free, running)
	if s.rec != nil {
		s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
			Job: telemetry.None, Starter: s.Name(), Head: int64(head.ID),
			Shadow: shadow, Spare: spare})
	}
	it := ix.IterAfter(headSlot)
	for j, k := it.NextFit(free), 0; j != nil; j, k = it.NextFit(free), k+1 {
		if stopAt(s.interrupt, k) {
			return nil
		}
		if job.AddSat(now, j.Estimate) <= shadow {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillBeforeShadow,
				Depth: ix.Rank(it.Slot()), Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
		if j.Nodes <= spare {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillSpareNodes,
				Depth: ix.Rank(it.Slot()), Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
	}
	return nil
}

// buildDrainProfile rebuilds the scratch profile for EASY's failure-aware
// variant: future capacity with the running jobs reserved and the
// announced drains carved out.
func (s *EASYStarter) buildDrainProfile(now int64, running []sim.Running, machineNodes int) {
	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, machineNodes, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			// A job running past its estimate would have been killed; be
			// defensive against malformed Running data.
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	reserveDrains(p, s.announced, now)
}

// drainPickOneIx is EASY's failure-aware decision, used while announced
// maintenance windows are pending: future capacity is modeled by the
// drain-aware scratch profile, the shadow time is the profile's earliest
// fit for the head (which therefore lands *after* any drain the head
// cannot straddle), and a job only starts now if the profile admits its
// whole estimated run from now — so nobody is started straight into a
// known drain. The width index only prunes the physical half of the fit
// check; each surviving candidate still pays its profile query.
func (s *EASYStarter) drainPickOneIx(ix *queue.Index, now int64, free int) *job.Job {
	p := s.scratch
	// fit: physically startable now (free nodes respect active outages)
	// and the profile admits the whole estimated run starting now.
	fit := func(j *job.Job) bool {
		return j.Nodes <= free && p.EarliestFit(j.Nodes, j.Estimate, now) == now
	}
	head, headSlot := ix.First()
	if head == nil {
		return nil
	}
	if fit(head) {
		s.stash(head, telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
		})
		return head
	}
	if ix.Len() == 1 {
		return nil
	}
	shadow := p.EarliestFit(head.Nodes, head.Estimate, now)
	spare := 0
	if shadow < profile.Infinity {
		if sp := p.FreeAt(shadow) - head.Nodes; sp > 0 {
			spare = sp
		}
	}
	if s.rec != nil {
		s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
			Job: telemetry.None, Starter: s.Name(), Head: int64(head.ID),
			Shadow: shadow, Spare: spare})
	}
	it := ix.IterAfter(headSlot)
	for j, k := it.NextFit(free), 0; j != nil; j, k = it.NextFit(free), k+1 {
		if stopAt(s.interrupt, k) {
			return nil
		}
		if p.EarliestFit(j.Nodes, j.Estimate, now) != now {
			continue
		}
		if job.AddSat(now, j.Estimate) <= shadow {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillBeforeShadow,
				Depth: ix.Rank(it.Slot()), Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
		if j.Nodes <= spare {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillSpareNodes,
				Depth: ix.Rank(it.Slot()), Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
	}
	return nil
}

// shadowTime computes the head job's reservation: the earliest estimated
// time at which enough nodes drain for the head, and the spare nodes left
// over at that time after the head starts. ends must be sorted by
// byEstEnd.
func shadowTime(head *job.Job, now int64, free int, ends []sim.Running) (shadow int64, spare int) {
	avail := free
	for _, r := range ends {
		avail += r.Job.Nodes
		if avail >= head.Nodes {
			return max(r.EstEnd, now), avail - head.Nodes
		}
	}
	// The head fits on the drained machine only if it fits at all; the
	// simulator validates widths, so this is unreachable for valid jobs
	// unless the queue head is wider than the machine.
	return profile.Infinity, 0
}

// byEstEnd orders running jobs by estimated completion, ties by ID: a
// total order, the one in which EASY's shadow walk drains the machine.
func byEstEnd(a, b sim.Running) int {
	if c := cmp.Compare(a.EstEnd, b.EstEnd); c != 0 {
		return c
	}
	return cmp.Compare(a.Job.ID, b.Job.ID)
}

// ConservativeStarter implements conservative backfilling (Section 5.2):
// every queued job holds a reservation at its earliest fit, placed in
// priority order, and a job starts if and only if its reservation is
// due now.
//
// What it promises, precisely. Within one pass, no start delays the
// reservation of any job ahead of it in the current order: a job starts
// only where its window fits on top of the reservations of every job
// ahead of it ("will not increase the projected completion time of a
// job submitted before the job used for backfilling"). Across passes
// there is no such promise. Reservations follow the current order and
// the current estimates, so a reservation may move later when a running
// job ends before its estimate (a job ahead moves up and can take its
// window) or when SMART/PSRS reorder the queue.
//
// A pass either rebuilds the profile from the running jobs and the
// whole order, keeps the last pass's profile and places only the jobs
// that arrived since, or repairs the kept profile after early
// completions (see PickMany and DESIGN.md §11).
type ConservativeStarter struct {
	decided
	// maxDepth bounds how many queued jobs are walked per pass
	// (0 = unlimited, the paper's semantics).
	maxDepth int
	// rec receives backfill-attempt events; stats counts the scratch
	// profiles' kernel operations (both nil = telemetry disabled).
	rec   telemetry.Recorder
	stats *profile.Stats
	// scratch is the reusable reservation profile; Reset recycles its
	// step storage. A Starter is owned by one simulation goroutine, so
	// this is not a race. factory selects the backend (default:
	// profile.NewTree, the blocked step array).
	scratch profile.Kernel
	factory ProfileFactory
	// announced holds maintenance windows (FailureAware): each pass carves
	// them out of the scratch profile, so reservations — and therefore
	// start-now decisions — route around known drains.
	announced []sim.Failure
	// picked is PickMany's reusable pass buffer; req and starts are the
	// buffers of its one-job StartMany placements.
	picked []*job.Job
	req    [1]profile.StartReq
	starts []int64
	// interrupt is the cooperative cancellation hook (Interruptible).
	interrupt func() bool
	// keep is what the last pass left in scratch, for the next pass to
	// reuse; rep is the state of a pass that repairs it.
	keep keptPass
	rep  repair
	// path is how the last pass came by its profile.
	path passPath
}

// keptPass describes the profile the last pass left behind: the
// running jobs it reserved, and the reservations of the first len(fits)
// waiting jobs.
type keptPass struct {
	// valid reports that the last pass may be reused at all: it ran to
	// the end (no interrupt), walked without a depth bound, and clamped no
	// running job's reservation.
	valid bool
	// ix, changes and machine identify the queue and machine the pass
	// ran on; changes is ix.Changes() once the engine has removed the
	// pass's picks.
	ix      *queue.Index
	changes uint64
	machine int
	// fits holds the reserved start of each of the first len(fits)
	// waiting jobs, in order (profile.Infinity: no reservation); jobs
	// holds those jobs, so the next pass walks them from here rather than
	// from the queue.
	fits []int64
	jobs []*job.Job
	// running is the running set the profile reserves — the pass's
	// running jobs plus its picks — in the engine's ID order.
	running []sim.Running
	// reserved counts the reservations added since the last Reset, less
	// the kept ones a repair released whole; it bounds the dead history a
	// kept profile accumulates.
	reserved int
}

// passPath is how a conservative pass came by its profile.
type passPath uint8

const (
	// pathRebuild: reset to the running jobs, every waiting job placed.
	pathRebuild passPath = iota
	// pathReuse: the kept profile as it was.
	pathReuse
	// pathRepair: the kept profile with the early-departed jobs' rest
	// released; no kept reservation moved.
	pathRepair
	// pathRepairMoved: as pathRepair up to the first kept reservation
	// that moved, rebuilt from there on.
	pathRepairMoved
)

// NewConservativeStarter returns the conservative backfilling start
// policy. maxDepth > 0 bounds the reservation walk
// (ablation/production tractability); 0 keeps the full semantics.
func NewConservativeStarter(maxDepth int) *ConservativeStarter {
	return &ConservativeStarter{maxDepth: maxDepth}
}

// Name implements Starter.
func (*ConservativeStarter) Name() string { return string(StartConservative) }

// SetInterrupt implements Interruptible.
func (s *ConservativeStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// Announce implements FailureAware.
func (s *ConservativeStarter) Announce(windows []sim.Failure) {
	s.announced = windows
	s.keep.valid = false
}

// Instrument implements Instrumented.
func (s *ConservativeStarter) Instrument(h telemetry.Hooks) {
	s.rec = h.Recorder
	s.stats = h.ProfileStats
	for _, p := range []profile.Kernel{s.scratch, s.rep.test} {
		if p != nil {
			p.SetStats(s.stats)
		}
	}
}

// PickMany implements Starter: one conservative pass with one profile
// and one walk, where the sequential protocol (the reference oracle)
// rebuilds and rewalks after every start. Equivalence: when a job
// starts, the next sequential rebuild differs from the current profile
// only by that job's running reservation, which its placement already
// made; re-walked unstarted jobs keep their placements because (a) the
// started job's fit check passed *on top of* their reservations, so
// each old window stays feasible, and (b) capacity only shrank, so no
// earlier fit can open. The depth budget counts unstarted jobs only —
// each sequential walk indexes maxDepth jobs of its remaining
// (started-jobs-removed) queue.
//
// prepare leaves in the profile what a rebuild would hold over
// [now, ∞) for the first len(keep.fits) jobs (none after a rebuild).
// The walk reads those jobs from keep.jobs and their fits from
// keep.fits, and places every job behind them with one StartMany
// request, on a cursor positioned past them.
func (s *ConservativeStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
	s.reset()
	s.picked = s.picked[:0]
	if ix.Len() == 0 || free <= 0 {
		return s.picked
	}
	// Same fast path as the sequential walk: nothing fits, nothing to do
	// (and no backfill event — the sequential pass never walks either).
	if ix.MinNodes() > free {
		return s.picked
	}

	kp := &s.keep
	s.path = s.prepare(ix, now, running, machineNodes)
	p := s.scratch
	p.BeginPass(now)
	fits, jobs, k := kp.fits, kp.jobs, len(kp.fits)
	w := 0       // fits rewritten so far: the walked jobs', in order
	walked := 0  // unstarted jobs examined: the remaining-queue index
	visited := 0 // positions examined; kept fits past it stay as they are
	headID := telemetry.None
	var it queue.Cursor // past the kept prefix: at position pos
	interrupted := false
	for pos := 0; ; pos++ {
		var j *job.Job
		if pos < k {
			j = jobs[pos]
		} else {
			if pos == k {
				it = s.cursorAt(ix, k-1)
			}
			if j = it.Next(); j == nil {
				break
			}
		}
		visited = pos
		if free <= 0 {
			break // the sequential protocol stops passing at zero free
		}
		if s.maxDepth > 0 && walked >= s.maxDepth {
			break
		}
		if len(s.picked) >= limit {
			break
		}
		if stopAt(s.interrupt, pos) {
			interrupted = true
			break // interrupted: partial pass, run is being discarded
		}
		visited = pos + 1
		var t int64
		if pos < k {
			t = fits[pos]
		} else {
			// One request: the earliest fit, reserved. For a job that
			// starts now, that is the reservation the next sequential
			// rebuild would hold for it as a running job. Its fit check
			// passed on the drained profile, so the plain reservation
			// commutes with the drains' zero-clamp inside the window.
			s.req[0] = profile.StartReq{Nodes: j.Nodes, Duration: j.Estimate}
			s.starts = p.StartMany(s.req[:], s.starts[:0])
			if t = s.starts[0]; t < profile.Infinity {
				kp.reserved++
			}
		}
		if t == now && j.Nodes <= free {
			d := telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonReservationDueNow,
				Depth: walked, Head: telemetry.None,
			}
			if walked > 0 {
				d.Head = headID
			}
			s.stash(j, d)
			s.picked = append(s.picked, j)
			free -= j.Nodes
			// Early stop: a start-now fit needs Nodes <= free, so if no
			// job past this one is narrow enough for the shrunken free,
			// no further pick is possible and the remaining reservations
			// cannot influence any decision this pass — mirroring the
			// sequential protocol, whose next pass exits on its width
			// precheck without touching the profile.
			probe := it
			if pos < k {
				probe = s.cursorAt(ix, pos)
			}
			if probe.NextFit(free) == nil {
				break
			}
			continue
		}
		if walked == 0 {
			// First unstarted job: the remaining head for the rest of the
			// pass (capacity only shrinks, so it cannot start later).
			headID = int64(j.ID)
			if s.rec != nil && ix.Len()-len(s.picked) > 1 {
				s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
					Job: telemetry.None, Starter: s.Name(), Head: int64(j.ID)})
			}
		}
		walked++
		if w < len(fits) {
			fits[w], jobs[w] = t, j
		} else {
			fits, jobs = append(fits, t), append(jobs, j)
		}
		w++
	}
	p.CommitPass()
	// The kept fits this pass never reached stay kept behind the ones it
	// rewrote (w <= visited, so the copy moves them down or nowhere).
	if visited < k {
		copy(jobs[w:], jobs[visited:k])
		w += copy(fits[w:], fits[visited:k])
	}
	kp.fits, kp.jobs = fits[:w], jobs[:w]
	s.remember(ix, now, running, machineNodes, interrupted)
	return s.picked
}

// cursorAt returns a cursor at position pos of the queue (-1: before
// the first job), so that Next returns the job at pos+1.
func (s *ConservativeStarter) cursorAt(ix *queue.Index, pos int) queue.Cursor {
	if pos < 0 {
		return ix.Iter()
	}
	_, slot := ix.Select(pos)
	return ix.IterAfter(slot)
}

// prepare readies the profile of a pass and says how: it keeps the last
// pass's profile when reusable, repairs it when the last pass's
// profile differs from a rebuild only by running jobs that left before
// their estimated end, and rebuilds it otherwise.
func (s *ConservativeStarter) prepare(ix *queue.Index, now int64, running []sim.Running, machineNodes int) passPath {
	until, ok := s.reusable(ix, now, running, machineNodes)
	switch {
	case !ok:
		s.rebuild(now, running, machineNodes)
		return pathRebuild
	case until == now:
		return pathReuse
	}
	for _, r := range s.rep.gone {
		s.scratch.Release(r.Job.Nodes, now, r.EstEnd)
	}
	if s.repairKept(now, running, until, machineNodes) {
		return pathRepairMoved
	}
	return pathRepair
}

// rebuild resets the scratch profile to the running jobs' reservations
// and the announced drains, forgetting the kept fits. A running job past
// its estimate keeps a one-second reservation; such a profile is not
// kept, because the next pass at the same instant would drop it.
func (s *ConservativeStarter) rebuild(now int64, running []sim.Running, machineNodes int) {
	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, machineNodes, now)
	p := s.scratch
	kp := &s.keep
	kp.valid = s.maxDepth == 0
	kp.fits, kp.jobs = kp.fits[:0], kp.jobs[:0]
	kp.reserved = len(running)
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			end = now + 1
			kp.valid = false
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	kp.reserved += reserveDrains(p, s.announced, now)
}

// remember records what the pass just left in the profile: its queue,
// and the running set the engine will hand the next pass once it has
// started the picks (each with EstEnd = now + Estimate).
func (s *ConservativeStarter) remember(ix *queue.Index, now int64, running []sim.Running, machineNodes int, interrupted bool) {
	kp := &s.keep
	if interrupted {
		kp.valid = false
	}
	if !kp.valid {
		return
	}
	kp.ix, kp.machine = ix, machineNodes
	kp.changes = ix.Changes() + uint64(len(s.picked))
	kp.running = append(kp.running[:0], running...)
	for _, j := range s.picked {
		r := sim.Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)}
		i, _ := slices.BinarySearchFunc(kp.running, r, byID)
		kp.running = slices.Insert(kp.running, i, r)
	}
}

// reusable reports whether the kept profile is, over [now, ∞), exactly
// the one a rebuild would produce for the first len(keep.fits) waiting
// jobs — except for the running jobs that left before their estimated
// end, whose reservations it still holds: it returns the latest
// estimated end among those (now if there are none; their list is in
// rep.gone). It holds when, since the last pass:
//   - the order only lost that pass's picks and gained jobs at its tail
//     (the index moved by exactly the picks' removals; Push does not
//     count) — so no replan or withdrawal intervened, and a hiding
//     wrapper hid at most those picks;
//   - the running set only lost jobs, each of them with its estimated
//     end unchanged, and none is past its estimated end now. The sets
//     are compared in order, the engine's and Filter's ID order;
//   - no announced drain is pending, no kept fit is in the past, and the
//     profile's dead history is bounded by the live reservations.
//
// Then, with the early-departed jobs counted as still running, each kept
// fit t ≥ now is still the earliest: the rebuild places the same jobs in
// the same order over a profile with no more capacity than the last
// pass saw from now on, so no earlier window can open, and the last
// pass's final profile, which holds every one of them, proves each
// window feasible (DESIGN.md §11).
func (s *ConservativeStarter) reusable(ix *queue.Index, now int64, running []sim.Running, machineNodes int) (until int64, ok bool) {
	kp := &s.keep
	if !kp.valid || kp.ix != ix || kp.machine != machineNodes || ix.Changes() != kp.changes {
		return 0, false
	}
	if drainsPending(s.announced, now) || kp.reserved > 2*(len(running)+ix.Len()) {
		return 0, false
	}
	gone := s.rep.gone[:0]
	until = now
	i := 0
	for _, r := range running {
		for ; i < len(kp.running) && kp.running[i].Job != r.Job; i++ {
			if e := kp.running[i]; e.EstEnd > now {
				gone = append(gone, e)
				until = max(until, e.EstEnd)
			}
		}
		if i == len(kp.running) || kp.running[i].EstEnd != r.EstEnd || r.EstEnd <= now {
			return 0, false
		}
		i++
	}
	for ; i < len(kp.running); i++ {
		if e := kp.running[i]; e.EstEnd > now {
			gone = append(gone, e)
			until = max(until, e.EstEnd)
		}
	}
	s.rep.gone = gone
	for _, t := range kp.fits {
		if t < now {
			return 0, false
		}
	}
	return until, true
}

// byID orders running jobs by ID, the order the engine hands them over.
func byID(a, b sim.Running) int { return cmp.Compare(a.Job.ID, b.Job.ID) }
