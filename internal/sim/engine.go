package sim

import (
	"cmp"
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

// completion is one entry of a time-ordered event heap: a running job's
// completion, or (in the batch driver) a backoff-delayed resubmission.
type completion struct {
	at  int64
	seq int // tie-break: start order (abort order for resubmissions)
	job *job.Job
}

// completionHeap is a binary min-heap of completions on (at, seq). The
// pair is a total order, so the pop sequence is fixed by the pushed set
// alone; being typed, a push or pop boxes nothing.
type completionHeap []completion

func (h completionHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest completion; the heap is non-empty.
func (h *completionHeap) pop() completion {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	c := old[n]
	old[n] = completion{}
	*h = old[:n]
	return c
}

// init establishes the heap order over entries appended without push.
func (h completionHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h completionHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h completionHeap) down(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// RunEntry is one executing job as the Stepper tracks it: unlike the
// scheduler-facing Running it carries the actual completion time End and
// the job's position Seq in the machine's start order, which breaks
// completion ties.
type RunEntry struct {
	Job        *job.Job
	Start, End int64
	Seq        int
}

// Allocation is the entry's placement in the schedule once it completes.
func (e RunEntry) Allocation() Allocation {
	return Allocation{Job: e.Job, Start: e.Start, End: e.End, Killed: e.Job.Killed()}
}

// Stepper is the one event loop of the repository, in resumable form: it
// owns the machine state (free nodes, the running set, the start
// sequence and the completion heap) and drives a Scheduler through one
// time instant at a time. The phases of an instant are separate methods
// so each driver inserts its own events between them:
//
//	Complete(now)   deliver the completions due at now
//	…               driver events: capacity changes and aborts, expiries
//	Submit(j, now)  hand arrivals to the scheduler
//	RunPasses(now)  let the scheduler start jobs until it declines
//
// Instants must be visited in non-decreasing order and no completion
// may be skipped: the next instant is never later than NextCompletion.
// sim.run (Run/RunStream) is the batch driver; serve.Session is the
// daemon's. A Stepper is not safe for concurrent use.
type Stepper struct {
	s         Scheduler
	rec       telemetry.Recorder
	interrupt func() bool
	measure   bool
	schedTime time.Duration // inside the scheduler's methods, if measure

	free     int
	startSeq int
	// running holds the executing jobs sorted by ID, and view, index for
	// index, the same jobs as Startable sees them: the engine's record and
	// the scheduler's view are kept together rather than rebuilt per pass.
	// A heap entry in due is live only while running still holds its job
	// with the same Seq: an aborted attempt leaves its completion behind,
	// and Complete skips it.
	running []RunEntry
	view    []Running
	due     completionHeap

	out []RunEntry // the slice Complete and RunPasses return
}

// NewStepper returns an idle machine driving s. Of opt it honours
// Recorder, Interrupt and MeasureCPU; the rest is the batch driver's.
func NewStepper(m Machine, s Scheduler, opt Options) *Stepper {
	st := &Stepper{s: s, rec: opt.Recorder, measure: opt.MeasureCPU,
		free: m.Nodes, running: make([]RunEntry, 0, 64), view: make([]Running, 0, 64)}
	if opt.Interrupt != nil {
		st.SetInterrupt(opt.Interrupt)
	}
	return st
}

// SetRecorder installs the recorder (nil = off) of the finish, pass and
// start events; the latter carry a DecisionExplainer's classification.
func (st *Stepper) SetRecorder(rec telemetry.Recorder) { st.rec = rec }

// SetInterrupt installs the cancellation hook (see Options.Interrupt) and
// threads it into a scheduler that polls one inside its passes
// (structural interface: sim cannot import sched).
func (st *Stepper) SetInterrupt(f func() bool) {
	st.interrupt = f
	if ii, ok := st.s.(interface{ SetInterrupt(func() bool) }); ok {
		ii.SetInterrupt(f)
	}
}

// Interrupted polls the cancellation hook.
func (st *Stepper) Interrupted() bool { return st.interrupt != nil && st.interrupt() }

// Free, StartSeq and RunningLen report the unassigned nodes, the number
// of jobs started so far and the number executing now.
func (st *Stepper) Free() int       { return st.free }
func (st *Stepper) StartSeq() int   { return st.startSeq }
func (st *Stepper) RunningLen() int { return len(st.running) }

func (st *Stepper) timed(f func()) {
	if !st.measure {
		f()
		return
	}
	t0 := time.Now()
	f()
	st.schedTime += time.Since(t0)
}

// NextCompletion returns the earliest instant with a completion in the
// heap. The completion of an aborted attempt still marks an instant
// (Complete delivers nothing for it).
func (st *Stepper) NextCompletion() (int64, bool) {
	if len(st.due) == 0 {
		return 0, false
	}
	return st.due[0].at, true
}

// Complete delivers every completion due at now — resources freed at t
// are available to jobs started at t — and returns the finished entries
// in delivery order. The slice is reused by the next Complete or
// RunPasses call.
func (st *Stepper) Complete(now int64) []RunEntry {
	st.out = st.out[:0]
	for len(st.due) > 0 && st.due[0].at == now {
		c := st.due.pop()
		i, ok := st.find(c.job.ID)
		if !ok || st.running[i].Seq != c.seq {
			continue // completion of an aborted attempt
		}
		st.out = append(st.out, st.remove(i))
		if st.rec != nil {
			st.rec.Record(telemetry.Event{Type: telemetry.EventFinish, At: now,
				Job: int64(c.job.ID), Nodes: c.job.Nodes, Head: telemetry.None,
				Killed: c.job.Killed()})
		}
		st.timed(func() { st.s.JobFinished(c.job, now) })
	}
	return st.out
}

// Submit hands a waiting job to the scheduler. A scheduler refuses a job
// whose ID is already waiting (its queue does not grow): queues are keyed
// by ID, and IDs come from outside — a trace file, a caller's slice.
func (st *Stepper) Submit(j *job.Job, now int64) error {
	queued := st.s.QueueLen()
	st.timed(func() { st.s.Submit(j, now) })
	if st.s.QueueLen() != queued+1 {
		return fmt.Errorf("sim: job ID %d submitted at %d is already waiting: IDs must be unique among unfinished jobs", j.ID, now)
	}
	return nil
}

// RunPasses lets the scheduler start jobs at now until it declines and
// returns the started entries in start order (same reuse rule as
// Complete). Every pass hands Startable the running set itself, in ID
// order. The interrupt hook is polled after every pass: a scheduler
// that saw it mid-walk returned a truncated, possibly empty pick list,
// so none of it starts and ErrInterrupted tells the caller to discard
// the state.
func (st *Stepper) RunPasses(now int64) ([]RunEntry, error) {
	st.out = st.out[:0]
	for {
		var starts []*job.Job
		if st.rec != nil {
			st.rec.Record(telemetry.Event{Type: telemetry.EventPass, At: now,
				Job: telemetry.None, Head: telemetry.None,
				Queue: st.s.QueueLen(), Free: st.free})
		}
		st.timed(func() { starts = st.s.Startable(now, st.free, st.view) })
		if st.Interrupted() {
			return nil, ErrInterrupted
		}
		if len(starts) == 0 {
			return st.out, nil
		}
		for _, j := range starts {
			if j.Nodes > st.free {
				return nil, fmt.Errorf("sim: scheduler %s started %v with only %d nodes free",
					st.s.Name(), j, st.free)
			}
			st.free -= j.Nodes
			e := RunEntry{Job: j, Start: now, End: job.AddSat(now, j.EffectiveRuntime()), Seq: st.startSeq}
			st.startSeq++
			if !st.insert(e) {
				return nil, fmt.Errorf("sim: job ID %d started at %d is already running: IDs must be unique among unfinished jobs", j.ID, now)
			}
			st.due.push(completion{at: e.End, seq: e.Seq, job: j})
			st.out = append(st.out, e)
			if st.rec != nil {
				ev := telemetry.Event{Type: telemetry.EventStart, At: now,
					Job: int64(j.ID), Nodes: j.Nodes, Free: st.free,
					Head: telemetry.None}
				if ex, ok := st.s.(DecisionExplainer); ok {
					if d, ok := ex.LastStartDecision(j); ok {
						ev.Starter, ev.Reason, ev.Depth = d.Starter, d.Reason, d.Depth
						ev.Head, ev.Shadow, ev.Spare = d.Head, d.Shadow, d.Spare
					}
				}
				st.rec.Record(ev)
			}
			st.timed(func() { st.s.JobStarted(j, now) })
		}
	}
}

// find locates id in the running set: its index, or where it would go.
func (st *Stepper) find(id job.ID) (int, bool) {
	return slices.BinarySearchFunc(st.running, id, func(e RunEntry, id job.ID) int {
		return cmp.Compare(e.Job.ID, id)
	})
}

// insert adds e to the running set at its ID's position, or reports false
// if that ID is already running. The completion heap is the caller's.
func (st *Stepper) insert(e RunEntry) bool {
	i, found := st.find(e.Job.ID)
	if found {
		return false
	}
	st.running = slices.Insert(st.running, i, e)
	st.view = slices.Insert(st.view, i, Running{Job: e.Job, Start: e.Start, EstEnd: job.AddSat(e.Start, e.Job.Estimate)})
	return true
}

// remove takes entry i out of the running set, frees its nodes and
// returns it.
func (st *Stepper) remove(i int) RunEntry {
	e := st.running[i]
	st.free += e.Job.Nodes
	st.running = slices.Delete(st.running, i, i+1)
	st.view = slices.Delete(st.view, i, i+1)
	return e
}

// Entries returns the running set in start order: the order completion
// ties resolve in, and what Restore takes back.
func (st *Stepper) Entries() []RunEntry {
	out := slices.Clone(st.running)
	slices.SortFunc(out, func(a, b RunEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Restore loads running entries captured by Entries, and the start
// sequence to continue from, into an idle Stepper. The scheduler learns
// of the jobs from the next pass's running list. Entries that
// oversubscribe the machine or repeat a job ID are refused.
func (st *Stepper) Restore(entries []RunEntry, startSeq int) error {
	for _, e := range entries {
		if e.Job.Nodes > st.free {
			return fmt.Errorf("sim: running jobs oversubscribe the machine")
		}
		if !st.insert(e) {
			return fmt.Errorf("sim: running job ID %d restored twice: IDs must be unique among unfinished jobs", e.Job.ID)
		}
		st.free -= e.Job.Nodes
		st.due = append(st.due, completion{at: e.End, seq: e.Seq, job: e.Job})
	}
	st.due.init()
	st.startSeq = startSeq
	return nil
}

// AddCapacity applies a capacity change (a failure or its repair). Free
// may go negative; the driver aborts running jobs until it is not.
func (st *Stepper) AddCapacity(delta int) { st.free += delta }

// AbortNewest cuts short the most recently started running job (largest
// start time, ties toward the larger ID) — the one with the least sunk
// work — or reports false when nothing runs. Its nodes are free again
// and its completion will be skipped; resubmitting is the driver's call.
func (st *Stepper) AbortNewest() (RunEntry, bool) {
	best := -1
	for i, e := range st.running {
		// ID order: of equal starts, the later entry has the larger ID.
		if best < 0 || e.Start >= st.running[best].Start {
			best = i
		}
	}
	if best < 0 {
		return RunEntry{}, false
	}
	return st.remove(best), true
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

// run is the batch driver of the Stepper, shared by Run and RunStream:
// it pumps a Source, failure edges and backoff resubmits through the
// loop and keeps the Sink / retained-schedule bookkeeping. Each instant
// runs completions → failure edges → delayed resubmits → arrivals →
// passes. capHint sizes the retained allocation slice when the job count
// is known up front.
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
	st := NewStepper(m, s, opt)

	var (
		nextEdge = 0
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

	for {
		nxt, err := peek()
		if err != nil {
			return nil, err
		}
		due, hasDue := st.NextCompletion()
		if nxt == nil && !hasDue && nextEdge >= len(edges) && len(resub) == 0 {
			break
		}
		if st.Interrupted() {
			return nil, ErrInterrupted
		}
		// Determine the next event time.
		now := int64(-1)
		if nxt != nil {
			now = nxt.Submit
		}
		if hasDue && (now < 0 || due < now) {
			now = due
		}
		if nextEdge < len(edges) && (now < 0 || edges[nextEdge].at < now) {
			// Failure edges only matter while work remains; a trailing
			// repair after everything finished is still consumed to keep
			// the loop finite.
			now = edges[nextEdge].at
		}
		if len(resub) > 0 && (now < 0 || resub[0].at < now) {
			now = resub[0].at
		}
		if opt.MaxTime > 0 && now > opt.MaxTime {
			return nil, fmt.Errorf("sim: clock passed MaxTime %d with %d jobs running and %d waiting",
				opt.MaxTime, st.RunningLen(), s.QueueLen())
		}
		res.Events++

		done := st.Complete(now)
		if sink != nil {
			for _, e := range done {
				if err := emit(e.Allocation()); err != nil {
					return nil, err
				}
			}
		}
		// Apply failure edges at `now`: capacity drops abort the
		// newest-started jobs until the survivors fit; repairs hand the
		// nodes back. Edges were coalesced per timestamp, so only the net
		// capacity change is applied.
		for nextEdge < len(edges) && edges[nextEdge].at == now {
			st.AddCapacity(edges[nextEdge].delta)
			if rec != nil {
				rec.Record(telemetry.Event{Type: telemetry.EventCapacity, At: now,
					Job: telemetry.None, Head: telemetry.None,
					Delta: edges[nextEdge].delta})
			}
			nextEdge++
			for st.Free() < 0 {
				victim, ok := st.AbortNewest()
				if !ok {
					return nil, fmt.Errorf("sim: failure at %d cannot be absorbed", now)
				}
				// The attempt ends now, cut short. A retained schedule holds
				// one allocation per start, so the victim's sits at index Seq;
				// in sink mode it is finalized and emitted.
				a := victim.Allocation()
				a.End, a.Aborted, a.Killed = now, true, false
				if sink == nil {
					res.Schedule.Allocs[victim.Seq] = a
				} else if err := emit(a); err != nil {
					return nil, err
				}
				res.AbortedAttempts++
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
					resub.push(completion{at: job.AddSat(now, delay), seq: resubSeq, job: j})
					resubSeq++
					continue
				}
				res.Resubmits++
				if rec != nil {
					rec.Record(telemetry.Event{Type: telemetry.EventArrival, At: now,
						Job: int64(j.ID), Nodes: j.Nodes, Head: telemetry.None,
						Resubmit: true, Attempt: n})
				}
				if err := st.Submit(j, now); err != nil {
					return nil, err
				}
			}
		}
		// Deliver backoff-delayed resubmissions due at `now` (after the
		// failure edges so a retry never lands on capacity that vanished
		// in the same instant, before fresh arrivals so retried jobs keep
		// their seniority in submission-order delivery).
		for len(resub) > 0 && resub[0].at == now {
			c := resub.pop()
			res.Resubmits++
			if rec != nil {
				rec.Record(telemetry.Event{Type: telemetry.EventArrival, At: now,
					Job: int64(c.job.ID), Nodes: c.job.Nodes, Head: telemetry.None,
					Resubmit: true, Attempt: attempts[c.job.ID]})
			}
			if err := st.Submit(c.job, now); err != nil {
				return nil, err
			}
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
			if err := st.Submit(j, now); err != nil {
				return nil, err
			}
		}
		if q := s.QueueLen(); q > res.MaxQueue {
			res.MaxQueue = q
		}

		started, err := st.RunPasses(now)
		if err != nil {
			return nil, err
		}
		if sink == nil {
			for _, e := range started {
				res.Schedule.Allocs = append(res.Schedule.Allocs, e.Allocation())
			}
		}
	}

	if s.QueueLen() != 0 {
		return nil, fmt.Errorf("sim: scheduler %s left %d jobs waiting after all events",
			s.Name(), s.QueueLen())
	}
	res.SchedulerTime = st.schedTime
	if opt.Validate {
		if err := res.Schedule.Validate(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
