package sim

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"time"

	"jobsched/internal/job"
	"jobsched/internal/telemetry"
)

// ErrInterrupted is returned by Run when Options.Interrupt reports true:
// the run was cut short cooperatively (user signal, watchdog) and the
// partial schedule is discarded. Callers distinguish it from simulation
// errors with errors.Is.
var ErrInterrupted = errors.New("sim: run interrupted")

// Options configure a simulation run.
type Options struct {
	// Validate re-checks the produced schedule against the machine model
	// after the run (cheap; on by default in tests, optional for huge runs).
	Validate bool
	// MeasureCPU samples a monotonic clock around every scheduler call so
	// Result.SchedulerTime reproduces the computation-time experiments
	// (Tables 7–8). Slightly perturbs wall time of the simulation itself.
	MeasureCPU bool
	// MaxTime aborts the simulation if the clock passes this value
	// (0 = no limit). A safety net against schedulers that stop starting
	// jobs.
	MaxTime int64
	// Failures injects hardware outages (Section 2's uncontrollable
	// influences): at each failure's time the machine loses nodes for
	// the failure's duration; running jobs are aborted newest-first
	// until the remaining capacity suffices and are resubmitted (restart
	// from scratch, original submission time kept for the metrics).
	Failures []Failure
	// Resubmit governs retries of failure-aborted jobs: bounded budgets,
	// backoff delays, lost-job accounting. The zero value keeps the
	// historical behavior (unlimited immediate resubmission).
	Resubmit ResubmitPolicy
	// Interrupt, when non-nil, is polled once per event batch and after
	// every scheduling pass; when it reports true the run stops and
	// returns ErrInterrupted. Schedulers that implement
	// SetInterrupt(func() bool) (sched.Interruptible) additionally
	// receive the hook so a single batched pass over a deep backlog is
	// itself abandoned promptly instead of running to completion first.
	// It is the cooperative cancellation hook used by the eval watchdog
	// and signal handling — the function must be cheap and safe for
	// concurrent use with whatever sets it (typically an atomic flag or
	// a context check).
	Interrupt func() bool
	// Sink, when non-nil, receives every finalized allocation in event
	// order and Result.Schedule.Allocs stays empty — the bounded-memory
	// contract for streaming runs (see Sink). Incompatible with Validate,
	// which needs the retained schedule.
	Sink Sink
	// Recorder, when non-nil, receives the structured decision trace:
	// arrivals, starts (with the start-reason classification supplied by
	// DecisionExplainer schedulers), finishes, failure aborts, capacity
	// changes and per-query pass events. nil disables tracing at the
	// cost of one branch per event (the nil-recorder fast path).
	Recorder telemetry.Recorder
}

// DecisionExplainer is optionally implemented by schedulers that can
// classify why the job they just returned from Startable was started
// (sched.Composite delegates to its start policy). The engine merges the
// decision into the job's EventStart trace record; schedulers without it
// still produce start events, just unclassified.
type DecisionExplainer interface {
	// LastStartDecision describes the most recent start decision for j,
	// or reports false if the scheduler cannot attribute it.
	LastStartDecision(j *job.Job) (telemetry.Decision, bool)
}

// Result is the outcome of a simulation run.
type Result struct {
	Schedule *Schedule
	// SchedulerTime is the cumulative wall time spent inside the
	// scheduler's methods (only if Options.MeasureCPU).
	SchedulerTime time.Duration
	// Events is the number of discrete event batches processed.
	Events int
	// MaxQueue is the largest waiting-queue length observed (backlog
	// diagnostics; the paper discusses the backlog effect of replaying a
	// 430-node trace on 256 nodes).
	MaxQueue int
	// AbortedAttempts counts job executions cut short by injected
	// hardware failures.
	AbortedAttempts int
	// Resubmits counts post-abort resubmissions actually delivered
	// (immediate or delayed). AbortedAttempts - Resubmits = LostJobs.
	Resubmits int
	// LostJobs counts jobs dropped because their abort count exceeded
	// Options.Resubmit.MaxResubmits; they never complete and their final
	// attempt stays aborted in the schedule.
	LostJobs int
}

// completion is a pending job completion in the event heap.
type completion struct {
	at  int64
	seq int // tie-break: start order
	job *job.Job
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// newestRunning returns the most recently started running job (largest
// start time, ties broken toward the larger ID for determinism), or nil
// when nothing runs. Failure handling aborts the newest job first: it
// has the least sunk work.
func newestRunning(running map[job.ID]Running) *Running {
	var best *Running
	//lint:ignore maprange max-selection with a total tie-break on (Start, Job.ID): every iteration order yields the same victim, and sorting would allocate on the failure-handling path
	for id := range running {
		r := running[id]
		if best == nil || r.Start > best.Start ||
			(r.Start == best.Start && r.Job.ID > best.Job.ID) {
			cp := r
			best = &cp
		}
	}
	return best
}

// Run simulates the scheduler on the job stream and returns the final
// schedule. Jobs are delivered strictly in submission order; completions
// interleave by time. The machine model is Example 5's: exclusive
// variable partitions, no time sharing, jobs cancelled at their limit.
func Run(m Machine, jobs []*job.Job, s Scheduler, opt Options) (*Result, error) {
	if m.Nodes <= 0 {
		return nil, fmt.Errorf("sim: machine needs at least one node")
	}
	for _, j := range jobs {
		if err := j.Validate(m.Nodes, false); err != nil {
			return nil, err
		}
	}
	return run(m, NewSliceSource(jobs), s, opt, len(jobs))
}

// RunStream simulates the scheduler on a streaming arrival source
// without materializing the job list: jobs are pulled from src as the
// clock reaches them, one same-instant batch at a time. src must yield
// jobs in non-decreasing submission order (see Source); same-instant
// batches are sorted by ID, so RunStream over a trace and Run over the
// equivalent slice produce identical Results and telemetry.
//
// Without Options.Sink the full schedule is still retained in the
// Result; set a Sink (e.g. an Aggregates collector) for bounded-memory
// runs.
func RunStream(m Machine, src Source, s Scheduler, opt Options) (*Result, error) {
	if m.Nodes <= 0 {
		return nil, fmt.Errorf("sim: machine needs at least one node")
	}
	return run(m, src, s, opt, 0)
}

// run is the event loop shared by Run and RunStream. capHint sizes the
// retained allocation slice when the job count is known up front.
func run(m Machine, src Source, s Scheduler, opt Options, capHint int) (*Result, error) {
	sink := opt.Sink
	if sink != nil && opt.Validate {
		return nil, fmt.Errorf("sim: Validate needs the retained schedule; it cannot be combined with a Sink")
	}

	failures, err := validateFailures(opt.Failures, m.Nodes)
	if err != nil {
		return nil, err
	}
	// Failure edges: capacity deltas at failure starts and repairs.
	// Edges sharing a timestamp are coalesced into one net delta before
	// the absorb loop runs: a failure and a repair at the same instant
	// must not transiently drop capacity below the survivors' needs, or
	// running jobs get spuriously aborted even though net capacity never
	// fell (the pre-coalescing code applied negative deltas first).
	type edge struct {
		at    int64
		delta int
	}
	var raw []edge
	for _, f := range failures {
		raw = append(raw, edge{f.At, -f.Nodes}, edge{job.AddSat(f.At, f.Duration), f.Nodes})
	}
	slices.SortFunc(raw, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	var edges []edge
	for i := 0; i < len(raw); {
		j, delta := i, 0
		for j < len(raw) && raw[j].at == raw[i].at {
			delta += raw[j].delta
			j++
		}
		if delta != 0 {
			edges = append(edges, edge{raw[i].at, delta})
		}
		i = j
	}

	res := &Result{Schedule: &Schedule{
		Machine: m,
		Allocs:  make([]Allocation, 0, capHint),
	}}

	rec := opt.Recorder
	var explainer DecisionExplainer
	if rec != nil {
		explainer, _ = s.(DecisionExplainer)
	}

	// Thread the cancellation hook into the scheduler's own pass loops
	// (structural interface: sim cannot import sched). Without it a pass
	// already inside Startable runs unbounded on a deep backlog; the
	// per-event poll below only fires between batches.
	if opt.Interrupt != nil {
		if ii, ok := s.(interface{ SetInterrupt(func() bool) }); ok {
			ii.SetInterrupt(opt.Interrupt)
		}
	}

	var (
		pending    completionHeap
		free       = m.Nodes
		nextEdge   = 0
		startSeq   = 0
		schedTime  time.Duration
		runningBy  = make(map[job.ID]Running, 64)
		runningSeq = make(map[job.ID]int, 64)
		// runningAlloc maps a running job to its allocation record so a
		// failure abort can rewrite it in place (retained-schedule mode);
		// openAlloc holds the not-yet-finalized allocation in sink mode.
		runningAlloc map[job.ID]int
		openAlloc    map[job.ID]Allocation
		cancelled    = make(map[int]bool)
		// resub holds backoff-delayed resubmissions (a second event source
		// reusing the completion heap shape; seq is the abort order).
		resub    completionHeap
		resubSeq = 0
		// attempts counts failure aborts per job (drives the resubmit
		// budget, the backoff schedule and the trace Attempt field).
		attempts map[job.ID]int
	)
	if len(failures) > 0 {
		attempts = make(map[job.ID]int)
	}
	if sink == nil {
		runningAlloc = make(map[job.ID]int, 64)
	} else {
		openAlloc = make(map[job.ID]Allocation, 64)
	}

	// Streaming arrival state: a one-job peek buffer over the source and
	// a reused batch for the arrivals sharing the current instant.
	var (
		peeked     *job.Job
		srcDone    bool
		batch      []*job.Job
		lastSubmit = int64(-1)
	)
	peek := func() (*job.Job, error) {
		if peeked == nil && !srcDone {
			j, err := src.Next()
			if err != nil {
				return nil, fmt.Errorf("sim: arrival source: %w", err)
			}
			if j == nil {
				srcDone = true
				return nil, nil
			}
			if err := j.Validate(m.Nodes, false); err != nil {
				return nil, err
			}
			if j.Submit < lastSubmit {
				// A source going backwards in time would silently corrupt
				// the event order; the Source contract requires sorted input.
				return nil, fmt.Errorf("sim: arrival source yielded submit %d after %d: sources must be non-decreasing in submission time", j.Submit, lastSubmit)
			}
			lastSubmit = j.Submit
			peeked = j
		}
		return peeked, nil
	}
	emit := func(a Allocation) error {
		if err := sink.Emit(a); err != nil {
			return fmt.Errorf("sim: sink: %w", err)
		}
		return nil
	}

	timed := func(f func()) {
		if !opt.MeasureCPU {
			f()
			return
		}
		t0 := time.Now()
		f()
		schedTime += time.Since(t0)
	}

	// runningList snapshots the running set in ID order into a buffer
	// reused across scheduling rounds. Schedulers must not retain the
	// slice past the Startable call (the Scheduler contract); the engine
	// rewrites it on the next round.
	var runningBuf []Running
	runningList := func() []Running {
		runningBuf = runningBuf[:0]
		for _, r := range runningBy {
			runningBuf = append(runningBuf, r)
		}
		slices.SortFunc(runningBuf, func(a, b Running) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
		return runningBuf
	}

	for {
		nxt, err := peek()
		if err != nil {
			return nil, err
		}
		if nxt == nil && pending.Len() == 0 && nextEdge >= len(edges) && resub.Len() == 0 {
			break
		}
		if opt.Interrupt != nil && opt.Interrupt() {
			return nil, ErrInterrupted
		}
		// Determine the next event time.
		now := int64(-1)
		if nxt != nil {
			now = nxt.Submit
		}
		if pending.Len() > 0 && (now < 0 || pending[0].at < now) {
			now = pending[0].at
		}
		if nextEdge < len(edges) && (now < 0 || edges[nextEdge].at < now) {
			// Failure edges only matter while work remains; a trailing
			// repair after everything finished is still consumed to keep
			// the loop finite.
			now = edges[nextEdge].at
		}
		if resub.Len() > 0 && (now < 0 || resub[0].at < now) {
			now = resub[0].at
		}
		if opt.MaxTime > 0 && now > opt.MaxTime {
			return nil, fmt.Errorf("sim: clock passed MaxTime %d with %d jobs running and %d waiting",
				opt.MaxTime, len(runningBy), s.QueueLen())
		}
		res.Events++

		// Deliver all completions at `now` first: resources freed at t are
		// available to jobs started at t. Completions of failure-aborted
		// attempts were cancelled and are skipped.
		for pending.Len() > 0 && pending[0].at == now {
			c := heap.Pop(&pending).(completion)
			if cancelled[c.seq] {
				delete(cancelled, c.seq)
				continue
			}
			free += c.job.Nodes
			delete(runningBy, c.job.ID)
			delete(runningSeq, c.job.ID)
			if sink != nil {
				a := openAlloc[c.job.ID]
				delete(openAlloc, c.job.ID)
				if err := emit(a); err != nil {
					return nil, err
				}
			}
			if rec != nil {
				rec.Record(telemetry.Event{Type: telemetry.EventFinish, At: now,
					Job: int64(c.job.ID), Nodes: c.job.Nodes, Head: telemetry.None,
					Killed: c.job.Killed()})
			}
			timed(func() { s.JobFinished(c.job, now) })
		}
		// Apply failure edges at `now`: capacity drops abort the
		// newest-started jobs until the survivors fit; repairs hand the
		// nodes back. Edges were coalesced per timestamp, so only the net
		// capacity change is applied.
		for nextEdge < len(edges) && edges[nextEdge].at == now {
			free += edges[nextEdge].delta
			if rec != nil {
				rec.Record(telemetry.Event{Type: telemetry.EventCapacity, At: now,
					Job: telemetry.None, Head: telemetry.None,
					Delta: edges[nextEdge].delta})
			}
			nextEdge++
			for free < 0 {
				victim := newestRunning(runningBy)
				if victim == nil {
					return nil, fmt.Errorf("sim: failure at %d cannot be absorbed", now)
				}
				free += victim.Job.Nodes
				// Rewrite the victim's allocation record: the attempt ends
				// now, cut short. In sink mode the open allocation is
				// finalized and emitted instead of rewritten in place.
				if sink == nil {
					a := &res.Schedule.Allocs[runningAlloc[victim.Job.ID]]
					a.End = now
					a.Aborted = true
					a.Killed = false
					delete(runningAlloc, victim.Job.ID)
				} else {
					a := openAlloc[victim.Job.ID]
					a.End = now
					a.Aborted = true
					a.Killed = false
					delete(openAlloc, victim.Job.ID)
					if err := emit(a); err != nil {
						return nil, err
					}
				}
				res.AbortedAttempts++
				cancelled[runningSeq[victim.Job.ID]] = true
				delete(runningBy, victim.Job.ID)
				delete(runningSeq, victim.Job.ID)
				// Resubmit: the job restarts from scratch; its original
				// submission time is kept so response metrics account the
				// full delay. The resubmit policy may delay the retry
				// (backoff) or drop the job entirely (budget exhausted).
				j := victim.Job
				attempts[j.ID]++
				n := attempts[j.ID]
				if rec != nil {
					rec.Record(telemetry.Event{Type: telemetry.EventAbort, At: now,
						Job: int64(j.ID), Nodes: j.Nodes, Head: telemetry.None,
						Attempt: n})
				}
				if opt.Resubmit.MaxResubmits > 0 && n > opt.Resubmit.MaxResubmits {
					res.LostJobs++
					if rec != nil {
						rec.Record(telemetry.Event{Type: telemetry.EventLost, At: now,
							Job: int64(j.ID), Nodes: j.Nodes, Head: telemetry.None,
							Attempt: n})
					}
					continue
				}
				if delay := opt.Resubmit.Delay(n); delay > 0 {
					heap.Push(&resub, completion{at: job.AddSat(now, delay), seq: resubSeq, job: j})
					resubSeq++
					continue
				}
				res.Resubmits++
				if rec != nil {
					rec.Record(telemetry.Event{Type: telemetry.EventArrival, At: now,
						Job: int64(j.ID), Nodes: j.Nodes, Head: telemetry.None,
						Resubmit: true, Attempt: n})
				}
				timed(func() { s.Submit(j, now) })
			}
		}
		// Deliver backoff-delayed resubmissions due at `now` (after the
		// failure edges so a retry never lands on capacity that vanished
		// in the same instant, before fresh arrivals so retried jobs keep
		// their seniority in submission-order delivery).
		for resub.Len() > 0 && resub[0].at == now {
			c := heap.Pop(&resub).(completion)
			res.Resubmits++
			if rec != nil {
				rec.Record(telemetry.Event{Type: telemetry.EventArrival, At: now,
					Job: int64(c.job.ID), Nodes: c.job.Nodes, Head: telemetry.None,
					Resubmit: true, Attempt: attempts[c.job.ID]})
			}
			j := c.job
			timed(func() { s.Submit(j, now) })
		}
		// Deliver all arrivals at `now`, sorted by ID within the instant:
		// the source only guarantees submit order, and the sort makes a
		// streaming run identical to one over a pre-sorted slice.
		batch = batch[:0]
		for {
			j, err := peek()
			if err != nil {
				return nil, err
			}
			if j == nil || j.Submit != now {
				break
			}
			batch = append(batch, j)
			peeked = nil
		}
		slices.SortStableFunc(batch, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
		for _, j := range batch {
			if rec != nil {
				rec.Record(telemetry.Event{Type: telemetry.EventArrival, At: now,
					Job: int64(j.ID), Nodes: j.Nodes, Head: telemetry.None})
			}
			timed(func() { s.Submit(j, now) })
		}
		if q := s.QueueLen(); q > res.MaxQueue {
			res.MaxQueue = q
		}

		// Let the scheduler start jobs until it declines.
		for {
			var starts []*job.Job
			running := runningList()
			if rec != nil {
				rec.Record(telemetry.Event{Type: telemetry.EventPass, At: now,
					Job: telemetry.None, Head: telemetry.None,
					Queue: s.QueueLen(), Free: free})
			}
			timed(func() { starts = s.Startable(now, free, running) })
			// Poll between passes too: an interrupted scheduler may have
			// abandoned its pass mid-walk and returned a truncated pick
			// list; the run is being discarded, so none of it starts.
			if opt.Interrupt != nil && opt.Interrupt() {
				return nil, ErrInterrupted
			}
			if len(starts) == 0 {
				break
			}
			for _, j := range starts {
				if j.Nodes > free {
					return nil, fmt.Errorf("sim: scheduler %s started %v with only %d nodes free",
						s.Name(), j, free)
				}
				free -= j.Nodes
				end := job.AddSat(now, j.EffectiveRuntime())
				alloc := Allocation{Job: j, Start: now, End: end, Killed: j.Killed()}
				if sink == nil {
					runningAlloc[j.ID] = len(res.Schedule.Allocs)
					res.Schedule.Allocs = append(res.Schedule.Allocs, alloc)
				} else {
					openAlloc[j.ID] = alloc
				}
				runningBy[j.ID] = Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)}
				runningSeq[j.ID] = startSeq
				heap.Push(&pending, completion{at: end, seq: startSeq, job: j})
				startSeq++
				if rec != nil {
					ev := telemetry.Event{Type: telemetry.EventStart, At: now,
						Job: int64(j.ID), Nodes: j.Nodes, Free: free,
						Head: telemetry.None}
					if explainer != nil {
						if d, ok := explainer.LastStartDecision(j); ok {
							ev.Starter = d.Starter
							ev.Reason = d.Reason
							ev.Depth = d.Depth
							ev.Head = d.Head
							ev.Shadow = d.Shadow
							ev.Spare = d.Spare
						}
					}
					rec.Record(ev)
				}
				timed(func() { s.JobStarted(j, now) })
			}
		}
	}

	if s.QueueLen() != 0 {
		return nil, fmt.Errorf("sim: scheduler %s left %d jobs waiting after all events",
			s.Name(), s.QueueLen())
	}
	res.SchedulerTime = schedTime
	if opt.Validate {
		if err := res.Schedule.Validate(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
