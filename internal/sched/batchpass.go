package sched

// The BatchStarter implementations: each start policy's whole pass
// against the order policy's queue.Index. Every method mirrors the
// Pick-until-nil loop over the same policy's Pick decision for decision
// — same jobs, same order, same telemetry — the property
// TestBatchedPassesMatchSequential pins. The wins are structural: one
// profile build per pass instead of one per start, no O(Q) slice walk,
// width-pruned scans that skip runs of too-wide jobs in O(log Q), an
// O(1) "nothing fits" precheck for the conservative walk, and an
// O(log Q) horizon lookup for its fast mode.

import (
	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

var (
	_ BatchStarter = (*ListStarter)(nil)
	_ BatchStarter = (*GareyGrahamStarter)(nil)
	_ BatchStarter = (*EASYStarter)(nil)
	_ BatchStarter = (*ConservativeStarter)(nil)
)

// PickMany implements BatchStarter: the startable prefix of the queue.
// The head is never skipped, so the sequential loop starts consecutive
// heads until one does not fit — exactly this prefix.
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

// PickMany implements BatchStarter with a single width-pruned forward
// scan. The sequential loop rescans the remaining queue after every
// start, but free nodes only shrink during a pass, so a job that did not
// fit earlier can never fit later: the rescans would re-skip exactly the
// jobs this scan already skipped. Those skipped (too-wide) jobs are never
// touched: the cursor jumps over each run of misfits in O(log Q). Depth — the pick's index in the remaining queue,
// equal to the skips so far — is reconstructed as rank minus prior picks,
// and Head (the first job that failed to fit) is the job ranked exactly
// at the pick count when the first gap appears: until then every
// lower-ranked job was picked.
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

// PickMany implements BatchStarter as the literal sequential EASY loop
// with picked jobs hidden pass-locally — except that the drain-aware
// path builds its availability profile once per pass and extends it
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
	runLocal := append(s.runBuf[:0], running...)
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
		runLocal = append(runLocal, sim.Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)})
		ix.Hide(j)
	}
	s.runBuf = runLocal[:0]
	ix.UnhideAll()
	return s.picked
}

// pickOneIx is pickOne against the index: the backfill scan visits only
// candidates that fit the free nodes (width-pruned), never the runs of
// too-wide jobs between them. Depth = the candidate's rank in the
// remaining (visible) order, which is exactly its index in the slice
// Pick is handed.
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
	s.ends = append(s.ends[:0], running...)
	shadow, spare := shadowTime(head, now, free, s.ends)
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
		if now+j.Estimate <= shadow {
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

// drainPickOneIx is drainPickOne against the index. The width index only
// prunes the physical half of the fit check; each surviving candidate
// still pays its profile query, exactly like the slice walk.
func (s *EASYStarter) drainPickOneIx(ix *queue.Index, now int64, free int) *job.Job {
	p := s.scratch
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

// PickMany implements BatchStarter. Exact mode runs the whole pass as
// one continued profile walk (exactPass); fast mode restarts the
// sequential decision per start, because its skip horizon depends on the
// maximum estimate over the *remaining* queue and so legitimately moves
// as jobs leave it.
func (s *ConservativeStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
	s.reset()
	s.picked = s.picked[:0]
	if !s.fast {
		return s.exactPass(ix, now, free, running, machineNodes, limit)
	}
	runLocal := append(s.runBuf[:0], running...)
	for ix.Len() > 0 && free > 0 && !stopNow(s.interrupt) {
		if len(s.picked) >= limit {
			break
		}
		j := s.pickOneIx(ix, now, free, runLocal, machineNodes)
		if j == nil {
			break
		}
		s.picked = append(s.picked, j)
		free -= j.Nodes
		runLocal = append(runLocal, sim.Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)})
		ix.Hide(j)
	}
	s.runBuf = runLocal[:0]
	ix.UnhideAll()
	return s.picked
}

// pickOneIx is the conservative Pick decision against the index. Two
// index wins over the slice walk: the "nothing in the queue fits" precheck —
// an O(Q) scan per Pick, and the dominant cost of saturated deep-backlog
// passes — collapses to one O(1) subtree-minimum lookup, and fast mode's walk horizon (max estimate over the walked
// prefix) is an O(log Q) range query instead of a prefix scan. The
// reservation walk itself still visits the first depth jobs: every
// unstarted job holds a reservation that constrains later placements,
// wide or not.
func (s *ConservativeStarter) pickOneIx(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	if ix.Len() == 0 || free <= 0 {
		return nil
	}
	if ix.MinNodes() > free {
		return nil
	}
	depth := ix.Len()
	if s.maxDepth > 0 && depth > s.maxDepth {
		depth = s.maxDepth
	}
	horizon := profile.Infinity
	if s.fast {
		// Saturating add: a huge estimate near Infinity degrades to the
		// exact (unaccelerated) walk instead of wrapping negative.
		horizon = job.AddSat(now, ix.MaxEstimateFirst(depth))
	}

	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, machineNodes, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			// A job running past its estimate would have been killed; be
			// defensive against malformed Running data.
			end = now + 1
		}
		if end > horizon {
			end = horizon
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	reserveDrains(p, s.announced, now, horizon)
	it := ix.Iter()
	var first *job.Job
	for j, i := it.Next(), 0; j != nil && i < depth; j, i = it.Next(), i+1 {
		if stopAt(s.interrupt, i) {
			return nil
		}
		if i == 0 {
			first = j
		}
		t := p.EarliestFit(j.Nodes, j.Estimate, now)
		if t == now {
			if j.Nodes <= free {
				d := telemetry.Decision{
					Starter: s.Name(), Reason: telemetry.ReasonReservationDueNow,
					Depth: i, Head: telemetry.None,
				}
				if i > 0 {
					d.Head = int64(first.ID)
				}
				s.stash(j, d)
				return j
			}
			// Cannot physically start: reserve at now so later queue jobs
			// still respect this job's priority claim.
		}
		if i == 0 && s.rec != nil && ix.Len() > 1 {
			s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
				Job: telemetry.None, Starter: s.Name(), Head: int64(j.ID)})
		}
		if t >= horizon {
			continue // cannot influence any start-now decision
		}
		end := job.AddSat(t, j.Estimate)
		if end > horizon {
			end = horizon
		}
		if end > t {
			p.Reserve(j.Nodes, t, end)
		}
	}
	return nil
}

// exactPass computes an exact conservative pass with ONE profile build
// and ONE cursor walk, where the sequential protocol rebuilds and rewalks
// after every start. Equivalence: when a job starts, the next sequential
// rebuild differs from the current profile only by that job's running
// reservation, which is added here immediately; re-walked unstarted jobs
// keep their placements because (a) the started job's fit check passed
// *on top of* their reservations, so each old window stays feasible, and
// (b) capacity only shrank, so no earlier fit can open. The depth budget
// counts unstarted jobs only — each sequential walk indexes maxDepth jobs
// of its remaining (started-jobs-removed) queue.
func (s *ConservativeStarter) exactPass(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
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
	reserveDrains(p, s.announced, now, profile.Infinity)

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
