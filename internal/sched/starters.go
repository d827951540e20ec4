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
// are clipped to start at now.
func reserveDrains(p profile.Kernel, announced []sim.Failure, now int64) {
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
		}
	}
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
			return maxInt64(r.EstEnd, now), avail - head.Nodes
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

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ConservativeStarter implements conservative backfilling (Section 5.2):
// every queued job holds a reservation; backfilling "will not increase
// the projected completion time of a job submitted before the job used
// for backfilling". Because the order policies of this package may
// reorder the queue (SMART/PSRS), the reservation profile is rebuilt from
// the current priority order at every scheduling pass (compression); a
// job starts if and only if its reserved start is now.
type ConservativeStarter struct {
	decided
	// maxDepth bounds how many queued jobs are walked per pass
	// (0 = unlimited, the paper's semantics).
	maxDepth int
	// rec receives backfill-attempt events; stats counts the scratch
	// profile's kernel operations (both nil = telemetry disabled).
	rec   telemetry.Recorder
	stats *profile.Stats
	// scratch is the reusable reservation profile. A pass rebuilds the full
	// reservation state (compression); recycling the step storage via
	// Reset removes the per-pass allocation storm. A Starter
	// is owned by one simulation goroutine, so this is not a race.
	// factory selects the backend (default: the O(log S) tree kernel).
	scratch profile.Kernel
	factory ProfileFactory
	// announced holds maintenance windows (FailureAware): each pass carves
	// them out of the scratch profile, so reservations — and therefore
	// start-now decisions — route around known drains.
	announced []sim.Failure
	// picked is PickMany's reusable pass buffer.
	picked []*job.Job
	// interrupt is the cooperative cancellation hook (Interruptible).
	interrupt func() bool
}

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
func (s *ConservativeStarter) Announce(windows []sim.Failure) { s.announced = windows }

// Instrument implements Instrumented.
func (s *ConservativeStarter) Instrument(h telemetry.Hooks) {
	s.rec = h.Recorder
	s.stats = h.ProfileStats
	if s.scratch != nil {
		s.scratch.SetStats(s.stats)
	}
}

// PickMany implements Starter: one conservative pass with ONE profile
// build and ONE cursor walk, where the sequential protocol (the
// reference oracle) rebuilds and rewalks after every start. Equivalence:
// when a job starts, the next sequential rebuild differs from the current
// profile only by that job's running reservation, which is added here
// immediately; re-walked unstarted jobs keep their placements because
// (a) the started job's fit check passed *on top of* their reservations,
// so each old window stays feasible, and (b) capacity only shrank, so no
// earlier fit can open. The depth budget counts unstarted jobs only —
// each sequential walk indexes maxDepth jobs of its remaining
// (started-jobs-removed) queue.
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

	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, machineNodes, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	reserveDrains(p, s.announced, now)

	p.BeginPass(now)
	walked := 0 // unstarted jobs examined: the remaining-queue index
	headID := telemetry.None
	it := ix.Iter()
	for j, pos := it.Next(), 0; j != nil; j, pos = it.Next(), pos+1 {
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
			break // interrupted: partial pass, run is being discarded
		}
		t := p.EarliestFit(j.Nodes, j.Estimate, now)
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
			// The reservation the next sequential rebuild would hold for
			// this now-running job. Its fit check passed on the drained
			// profile, so the plain Reserve commutes with the drains'
			// zero-clamp inside the window.
			end := job.AddSat(now, j.Estimate)
			if end <= now {
				end = now + 1
			}
			p.Reserve(j.Nodes, now, end)
			// Early stop: a start-now fit needs Nodes <= free, so if no
			// job past the cursor is narrow enough for the shrunken free,
			// no further pick is possible and the remaining reservations
			// cannot influence any decision this pass — mirroring the
			// sequential protocol, whose next pass exits on its width
			// precheck without touching the profile.
			if probe := it; probe.NextFit(free) == nil {
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
		if t >= profile.Infinity {
			continue // never placeable: holds no reservation
		}
		end := job.AddSat(t, j.Estimate)
		if end > t {
			p.Reserve(j.Nodes, t, end)
		}
	}
	p.CommitPass()
	return s.picked
}
