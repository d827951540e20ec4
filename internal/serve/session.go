package serve

import (
	"container/heap"
	"errors"
	"fmt"
	"regexp"

	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// ErrInterrupted is returned by a session operation abandoned by the
// cooperative cancellation hook (request timeout, client disconnect).
// The in-memory state may be half-mutated: the owner must reload the
// session from disk before applying anything else.
var ErrInterrupted = errors.New("serve: operation interrupted")

// ErrRejected marks clean, no-mutation rejections (invalid spec, bad
// advance target): the session state is untouched, no recovery needed,
// and the HTTP layer maps it to a 4xx instead of a 5xx.
var ErrRejected = errors.New("serve: rejected")

func rejectf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrRejected)...)
}

// Config is a session's machine and policy configuration, fixed at
// creation and stored durably next to its WAL.
type Config struct {
	// Nodes is the machine size.
	Nodes int `json:"nodes"`
	// Order and Start select the scheduling algorithm (sched.OrderName /
	// sched.StartName); empty defaults to FCFS / EASY-Backfilling. Every
	// cell of the paper's grid recovers exactly: a PSRS/SMART snapshot
	// records the plan order and length as well as the jobs.
	Order string `json:"order,omitempty"`
	Start string `json:"start,omitempty"`
	// MaxPending bounds the waiting queue: submissions beyond it are
	// shed (recorded, never scheduled) instead of growing memory without
	// bound. Default 10000.
	MaxPending int `json:"max_pending,omitempty"`
	// DoneHistory bounds how many finished/expired/shed job records stay
	// queryable; older ones are evicted. Default 10000.
	DoneHistory int `json:"done_history,omitempty"`
}

const (
	defaultMaxPending  = 10000
	defaultDoneHistory = 10000
)

func (c Config) withDefaults() Config {
	if c.Order == "" {
		c.Order = string(sched.OrderFCFS)
	}
	if c.Start == "" {
		c.Start = string(sched.StartEASY)
	}
	if c.MaxPending == 0 {
		c.MaxPending = defaultMaxPending
	}
	if c.DoneHistory == 0 {
		c.DoneHistory = defaultDoneHistory
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Validate checks the configuration, including that the order/start
// pair constructs (the same check sched.New applies).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Nodes <= 0 {
		return rejectf("serve: session needs nodes > 0")
	}
	if c.MaxPending < 0 || c.DoneHistory < 0 {
		return rejectf("serve: max_pending and done_history must be >= 0")
	}
	if _, err := sched.New(sched.OrderName(c.Order), sched.StartName(c.Start), sched.Config{MachineNodes: c.Nodes}); err != nil {
		return rejectf("serve: %v", err)
	}
	return nil
}

// JobSpec is a client-submitted job. Times are logical (session clock
// units): the session is a deterministic simulation driven by explicit
// advance operations, which is what makes crash recovery replayable.
type JobSpec struct {
	Name string `json:"name,omitempty"`
	User string `json:"user,omitempty"`
	// Nodes is the job's width; Estimate the client's runtime bound.
	Nodes    int   `json:"nodes"`
	Estimate int64 `json:"estimate"`
	// Runtime is the simulated execution time (0 = Estimate). Like the
	// core machine model, a job is killed at its estimate.
	Runtime int64 `json:"runtime,omitempty"`
	// Deadline, when > 0, is the latest session clock at which the job
	// may still start; a job still waiting past it is expired and
	// withdrawn (0 = no deadline).
	Deadline int64 `json:"deadline,omitempty"`
}

func (sp JobSpec) normalized() JobSpec {
	if sp.Runtime == 0 {
		sp.Runtime = sp.Estimate
	}
	return sp
}

func (sp JobSpec) validate(machineNodes int) error {
	if sp.Nodes <= 0 {
		return rejectf("serve: job needs nodes > 0")
	}
	if sp.Nodes > machineNodes {
		return rejectf("serve: job needs %d nodes, machine has %d", sp.Nodes, machineNodes)
	}
	if sp.Estimate <= 0 {
		return rejectf("serve: job needs estimate > 0")
	}
	if sp.Runtime < 0 || sp.Deadline < 0 {
		return rejectf("serve: runtime and deadline must be >= 0")
	}
	return nil
}

// JobStatus is a job's lifecycle state in a session.
type JobStatus string

const (
	StatusPending JobStatus = "pending"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	// StatusExpired marks a job whose deadline passed before it started.
	StatusExpired JobStatus = "expired"
	// StatusShed marks a job refused by the bounded pending queue.
	StatusShed JobStatus = "shed"
)

// SubmitResult is the per-job outcome of a submit operation.
type SubmitResult struct {
	ID     int64     `json:"id"`
	Status JobStatus `json:"status"`
}

// Aggregates are the session's running totals. They are part of the
// fingerprinted state, so recovery provably reconstructs them.
type Aggregates struct {
	Submitted int64 `json:"submitted"`
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
	Shed      int64 `json:"shed"`
	// SumWait totals start-submit over started jobs; SumResponse totals
	// end-submit over completed ones (saturating).
	SumWait     int64 `json:"sum_wait"`
	SumResponse int64 `json:"sum_response"`
}

// jobState is a job's live record.
type jobState struct {
	id     job.ID
	spec   JobSpec
	status JobStatus
	submit int64
	start  int64
	end    int64
	seq    int      // start order; breaks completion ties
	rank   int      // position in the order's plan while pending (rankPlan), else 0
	j      *job.Job // the scheduler's handle while the job waits
	digest uint64   // what the record contributes to its section's sum
}

// coreJob builds the core job a spec stands for.
func coreJob(id job.ID, sp JobSpec, submit int64) *job.Job {
	return &job.Job{ID: id, Name: sp.Name, User: sp.User, Nodes: sp.Nodes,
		Submit: submit, Estimate: sp.Estimate, Runtime: sp.Runtime}
}

// deadlineEvent is an entry of the session's deadline heap (lazy
// deletion: entries whose job started or retired are skipped).
type deadlineEvent struct {
	at int64
	id job.ID
}

type deadlineQueue []deadlineEvent

func (h deadlineQueue) Len() int { return len(h) }
func (h deadlineQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h deadlineQueue) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deadlineQueue) Push(x any)   { *h = append(*h, x.(deadlineEvent)) }
func (h *deadlineQueue) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Session is one machine's live scheduling state: the daemon's driver of
// the sim.Stepper event loop around a sched.Composite. The stepper owns
// the machine (free nodes, running set, completions, passes); the
// session adds the logical clock, deadlines, the bounded history and the
// aggregates. Its state is a pure function of the operation sequence
// (submit/advance), which is the invariant WAL replay and snapshot
// restore rely on. A Session is not safe for concurrent use; the
// per-session store worker is its single writer.
type Session struct {
	name string
	cfg  Config
	sch  *sched.Composite
	step *sim.Stepper

	clock  int64
	nextID int64

	jobs      map[job.ID]*jobState
	deadlines deadlineQueue
	// retired is the bounded eviction ring over done/expired/shed jobs,
	// oldest first.
	retired []job.ID
	agg     Aggregates
	// sums holds, per section, the wrapping sum of its jobs' digests: the
	// part of the fingerprint that would otherwise need a walk.
	sums [numSections]uint64

	// audit receives the decision trace (nil = off, and during replay,
	// which re-applies state without re-emitting it).
	audit telemetry.Recorder
}

// auditTap is the recorder the stepper writes to: the engine's finish
// and start events reach the audit trail, its per-pass events do not.
type auditTap struct{ out telemetry.Recorder }

func (a auditTap) Record(ev telemetry.Event) {
	if out := a.out; out != nil && ev.Type != telemetry.EventPass {
		out.Record(ev)
	}
}

// NewSession builds an empty session. The config must already be
// validated (Config.Validate).
func NewSession(name string, cfg Config) (*Session, error) {
	if !nameRE.MatchString(name) {
		return nil, rejectf("serve: invalid session name %q", name)
	}
	cfg = cfg.withDefaults()
	sch, err := sched.New(sched.OrderName(cfg.Order), sched.StartName(cfg.Start), sched.Config{MachineNodes: cfg.Nodes})
	if err != nil {
		return nil, rejectf("serve: %v", err)
	}
	return &Session{
		name:   name,
		cfg:    cfg,
		sch:    sch,
		step:   sim.NewStepper(sim.Machine{Nodes: cfg.Nodes}, sch, sim.Options{}),
		nextID: 1,
		jobs:   make(map[job.ID]*jobState),
	}, nil
}

// SetAudit installs the audit-trace recorder (nil = off).
func (s *Session) SetAudit(rec telemetry.Recorder) {
	s.audit = rec
	if rec != nil {
		rec = auditTap{rec}
	}
	s.step.SetRecorder(rec)
}

// SetInterrupt installs the cooperative cancellation hook for the next
// operations (nil = never): polled between event instants and after
// every scheduling pass, and threaded into the scheduler's own pass
// loops. An operation that observes it fails with ErrInterrupted. The
// hook must be sticky (once true, true for the rest of the operation, as
// a context check is): one that flips back between polls could truncate
// a pass unnoticed.
func (s *Session) SetInterrupt(f func() bool) { s.step.SetInterrupt(f) }

// Name returns the session name.
func (s *Session) Name() string { return s.name }

// Clock returns the session's logical time.
func (s *Session) Clock() int64 { return s.clock }

// Counts returns (pending, running) job counts.
func (s *Session) Counts() (pending, running int) { return s.sch.QueueLen(), s.step.RunningLen() }

// Agg returns the session's running totals.
func (s *Session) Agg() Aggregates { return s.agg }

// ConfigValue returns the session's configuration.
func (s *Session) ConfigValue() Config { return s.cfg }

// Submit validates and applies a batch of job submissions at the
// current clock. Validation happens before any mutation, so a rejected
// batch (ErrRejected) leaves the session untouched; any other error
// means the state is poisoned and must be reloaded from disk.
func (s *Session) Submit(specs []JobSpec) ([]SubmitResult, error) {
	if len(specs) == 0 {
		return nil, rejectf("serve: empty submission")
	}
	norm := make([]JobSpec, len(specs))
	for i, sp := range specs {
		norm[i] = sp.normalized()
		if err := norm[i].validate(s.cfg.Nodes); err != nil {
			return nil, err
		}
	}
	results := make([]SubmitResult, 0, len(norm))
	for _, sp := range norm {
		id := job.ID(s.nextID)
		s.nextID++
		st := &jobState{id: id, spec: sp, submit: s.clock}
		s.jobs[id] = st
		switch {
		case s.sch.QueueLen() >= s.cfg.MaxPending:
			// Bounded queue: record the refusal durably (it is part of
			// the replayed state) but never schedule the job.
			st.status = StatusShed
			s.agg.Shed++
			s.retire(st)
		case sp.Deadline > 0 && sp.Deadline < s.clock:
			st.status = StatusExpired
			s.agg.Expired++
			s.retire(st)
		default:
			st.status = StatusPending
			st.j = coreJob(id, sp, s.clock)
			s.fold(secPending, st, 0)
			if sp.Deadline > 0 {
				heap.Push(&s.deadlines, deadlineEvent{at: sp.Deadline, id: id})
			}
			s.agg.Submitted++
			if err := s.step.Submit(st.j, s.clock); err != nil {
				return nil, err
			}
			if s.audit != nil {
				s.audit.Record(telemetry.Event{Type: telemetry.EventArrival, At: s.clock,
					Job: int64(id), Nodes: sp.Nodes, Head: telemetry.None})
			}
		}
		results = append(results, SubmitResult{ID: int64(id), Status: st.status})
	}
	if err := s.startJobs(); err != nil {
		return nil, err
	}
	return results, nil
}

// Advance moves the session clock to `to`; every event instant on the
// way runs completions → deadline expiry → passes. Advancing to or
// before the current clock is a deterministic no-op (idempotent under
// client retries). Any non-nil error except ErrRejected poisons the state.
func (s *Session) Advance(to int64) error {
	if to < 0 {
		return rejectf("serve: advance target must be >= 0")
	}
	for s.clock < to {
		if s.step.Interrupted() {
			return ErrInterrupted
		}
		t := to
		if at, ok := s.step.NextCompletion(); ok && at < t {
			t = at
		}
		if d, ok := s.earliestDeadline(); ok {
			// Expiry takes effect the instant after the deadline: at the
			// deadline itself the job may still start.
			if x := job.AddSat(d, 1); x < t {
				t = x
			}
		}
		s.clock = t
		for _, e := range s.step.Complete(t) {
			s.finish(e)
		}
		s.expireDeadlines(t)
		if err := s.startJobs(); err != nil {
			return err
		}
	}
	return nil
}

// earliestDeadline peeks the next live deadline, skipping entries whose
// jobs already started or retired (lazy deletion).
func (s *Session) earliestDeadline() (int64, bool) {
	for s.deadlines.Len() > 0 {
		ev := s.deadlines[0]
		st := s.jobs[ev.id]
		if st == nil || st.status != StatusPending {
			heap.Pop(&s.deadlines)
			continue
		}
		return ev.at, true
	}
	return 0, false
}

// expireDeadlines withdraws every still-pending job whose deadline lies
// strictly before now.
func (s *Session) expireDeadlines(now int64) {
	for {
		if at, ok := s.earliestDeadline(); !ok || at >= now {
			return
		}
		st := s.jobs[heap.Pop(&s.deadlines).(deadlineEvent).id]
		s.sch.Withdraw(st.j, now)
		s.unfold(secPending, st)
		st.status = StatusExpired
		st.j, st.rank = nil, 0
		s.agg.Expired++
		s.retire(st)
		if s.audit != nil {
			s.audit.Record(telemetry.Event{Type: telemetry.EventLost, At: now,
				Job: int64(st.id), Nodes: st.spec.Nodes, Head: telemetry.None})
		}
	}
}

// finish settles the record of a job the stepper completed.
func (s *Session) finish(e sim.RunEntry) {
	st := s.jobs[e.Job.ID]
	s.unfold(secRunning, st)
	st.status = StatusDone
	s.agg.Completed++
	s.agg.SumResponse = job.AddSat(s.agg.SumResponse, st.end-st.submit)
	s.retire(st)
}

// startJobs runs the stepper's passes at the current instant and
// settles the records of the jobs they started. A pass that replanned
// the order re-ranks the jobs still waiting.
func (s *Session) startJobs() error {
	epoch := s.sch.Recomputations()
	started, err := s.step.RunPasses(s.clock)
	if errors.Is(err, sim.ErrInterrupted) {
		return ErrInterrupted
	}
	if err != nil {
		return fmt.Errorf("serve: session %s: %w", s.name, err)
	}
	for _, e := range started {
		st := s.jobs[e.Job.ID]
		if st == nil || st.status != StatusPending {
			return fmt.Errorf("serve: session %s: scheduler started unknown or non-pending job %d", s.name, e.Job.ID)
		}
		s.unfold(secPending, st)
		st.status = StatusRunning
		st.start, st.end, st.seq = e.Start, e.End, e.Seq
		st.j, st.rank = nil, 0
		s.fold(secRunning, st, 0)
		s.agg.Started++
		s.agg.SumWait = job.AddSat(s.agg.SumWait, st.start-st.submit)
	}
	if s.sch.Recomputations() != epoch {
		s.rankPlan()
	}
	return nil
}

// rankPlan numbers the jobs of a new plan 1, 2, … in plan order: one
// O(Q) walk per replan, which itself costs O(Q log Q). No job arrives
// between a replan and this walk, so every waiting job is in the plan.
func (s *Session) rankPlan() {
	c := s.sch.Waiting()
	for i, j := 1, c.Next(); j != nil; i, j = i+1, c.Next() {
		st := s.jobs[j.ID]
		s.unfold(secPending, st)
		st.rank = i
		s.fold(secPending, st, 0)
	}
}

// retire appends a settled job to the bounded history ring, evicting
// the oldest records beyond DoneHistory. The caller has already counted
// the job in the aggregates, which retireOrdinal relies on.
func (s *Session) retire(st *jobState) {
	s.retired = append(s.retired, st.id)
	s.fold(secRetired, st, s.retireOrdinal(len(s.retired)-1))
	for len(s.retired) > s.cfg.DoneHistory {
		old := s.retired[0]
		s.retired = s.retired[1:]
		s.unfold(secRetired, s.jobs[old])
		delete(s.jobs, old)
	}
}

// Apply replays one WAL record. Replay must never cleanly reject: the
// record committed once, so a rejection here means the log does not
// match the state and the session must not serve.
func (s *Session) Apply(rec Record) error {
	defer s.SetAudit(s.audit)
	s.SetAudit(nil)
	var err error
	switch rec.Op {
	case opSubmit:
		_, err = s.Submit(rec.Jobs)
	case opAdvance:
		err = s.Advance(rec.At)
	default:
		return fmt.Errorf("serve: session %s: wal record %d has unknown op %q", s.name, rec.Seq, rec.Op)
	}
	if errors.Is(err, ErrRejected) {
		return fmt.Errorf("serve: session %s: wal record %d no longer applies: %v", s.name, rec.Seq, err)
	}
	return err
}
