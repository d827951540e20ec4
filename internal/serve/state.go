package serve

import (
	"container/heap"
	"fmt"

	"jobsched/internal/eval"
	"jobsched/internal/job"
	"jobsched/internal/sim"
)

// Fingerprint hashes the session's complete observable state: config,
// clocks, counters, and every live and retired job record. Two sessions
// with equal fingerprints serve identical answers to every query and
// make identical future scheduling decisions (for removal-stable order
// policies) — this is the equality the crash-recovery tests assert.
func (s *Session) Fingerprint() uint64 {
	fp := eval.NewFingerprint()
	fp.String("serve-session-v1")
	fp.String(s.name)
	fp.Int(int64(s.cfg.Nodes))
	fp.String(s.cfg.Order)
	fp.String(s.cfg.Start)
	fp.Int(int64(s.cfg.MaxPending))
	fp.Int(int64(s.cfg.DoneHistory))
	fp.Int(s.clock)
	fp.Int(s.nextID)
	fp.Int(int64(s.step.StartSeq()))
	fp.Int(int64(s.step.Free()))
	fp.Int(s.agg.Submitted)
	fp.Int(s.agg.Started)
	fp.Int(s.agg.Completed)
	fp.Int(s.agg.Expired)
	fp.Int(s.agg.Shed)
	fp.Int(s.agg.SumWait)
	fp.Int(s.agg.SumResponse)
	hashJob := func(st *jobState) {
		fp.Int(int64(st.id))
		fp.String(string(st.status))
		fp.String(st.spec.Name)
		fp.String(st.spec.User)
		fp.Int(int64(st.spec.Nodes))
		fp.Int(st.spec.Estimate)
		fp.Int(st.spec.Runtime)
		fp.Int(st.spec.Deadline)
		fp.Int(st.submit)
		fp.Int(st.start)
		fp.Int(st.end)
		fp.Int(int64(st.seq))
	}
	fp.String("pending")
	for _, id := range s.pendingIDs() {
		hashJob(s.jobs[id])
	}
	fp.String("running")
	for _, e := range s.step.Entries() {
		hashJob(s.jobs[e.Job.ID])
	}
	fp.String("retired")
	for _, id := range s.retired {
		if st := s.jobs[id]; st != nil {
			hashJob(st)
		}
	}
	return fp.Sum()
}

// Snapshot captures the session's durable state as of WAL sequence
// walSeq (every record up to and including it is folded in).
func (s *Session) Snapshot(walSeq uint64) *Snapshot {
	snap := &Snapshot{
		Version:  1,
		Name:     s.name,
		Config:   s.cfg,
		Clock:    s.clock,
		NextID:   s.nextID,
		StartSeq: s.step.StartSeq(),
		WALSeq:   walSeq,
		Agg:      s.agg,
	}
	toSnap := func(st *jobState) snapJob {
		return snapJob{ID: int64(st.id), Spec: st.spec, Submit: st.submit,
			Start: st.start, End: st.end, Seq: st.seq, Status: string(st.status)}
	}
	for _, id := range s.pendingIDs() {
		snap.Pending = append(snap.Pending, toSnap(s.jobs[id]))
	}
	for _, e := range s.step.Entries() {
		snap.Running = append(snap.Running, toSnap(s.jobs[e.Job.ID]))
	}
	for _, id := range s.retired {
		if st := s.jobs[id]; st != nil {
			snap.Retired = append(snap.Retired, toSnap(st))
		}
	}
	snap.Fingerprint = fmt.Sprintf("%016x", s.Fingerprint())
	return snap
}

// RestoreSession rebuilds a session from a snapshot and verifies the
// result round-trips to the recorded fingerprint; a snapshot that does
// not reproduce its own fingerprint is refused rather than served.
func RestoreSession(snap *Snapshot) (*Session, error) {
	s, err := NewSession(snap.Name, snap.Config)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	s.clock = snap.Clock
	s.nextID = snap.NextID
	s.agg = snap.Agg

	// Pending jobs re-enter the order policy in arrival order — the same
	// Push sequence the original session performed, so removal-stable
	// orders rebuild the identical queue.
	for _, sj := range snap.Pending {
		sp := sj.Spec.normalized()
		st := &jobState{id: job.ID(sj.ID), spec: sp, status: StatusPending, submit: sj.Submit}
		st.j = coreJob(st.id, sp, sj.Submit)
		s.jobs[st.id] = st
		s.pendingOrder = append(s.pendingOrder, st.id)
		s.pendingN++
		if sp.Deadline > 0 {
			s.deadlines = append(s.deadlines, deadlineEvent{at: sp.Deadline, id: st.id})
		}
		s.step.Submit(st.j, sj.Submit)
	}
	heap.Init(&s.deadlines)

	running := make([]sim.RunEntry, 0, len(snap.Running))
	for _, sj := range snap.Running {
		sp := sj.Spec.normalized()
		st := &jobState{id: job.ID(sj.ID), spec: sp, status: StatusRunning,
			submit: sj.Submit, start: sj.Start, end: sj.End, seq: sj.Seq}
		s.jobs[st.id] = st
		running = append(running, sim.RunEntry{Job: coreJob(st.id, sp, sj.Submit),
			Start: sj.Start, End: sj.End, Seq: sj.Seq})
	}
	if err := s.step.Restore(running, snap.StartSeq); err != nil {
		return nil, fmt.Errorf("serve: restore %s: %w", snap.Name, err)
	}

	for _, sj := range snap.Retired {
		sp := sj.Spec.normalized()
		st := &jobState{id: job.ID(sj.ID), spec: sp, status: JobStatus(sj.Status),
			submit: sj.Submit, start: sj.Start, end: sj.End, seq: sj.Seq}
		switch st.status {
		case StatusDone, StatusExpired, StatusShed:
		default:
			return nil, fmt.Errorf("serve: restore %s: retired job %d has live status %q", snap.Name, sj.ID, sj.Status)
		}
		s.jobs[st.id] = st
		s.retired = append(s.retired, st.id)
	}

	if got := fmt.Sprintf("%016x", s.Fingerprint()); got != snap.Fingerprint {
		return nil, fmt.Errorf("serve: restore %s: snapshot does not round-trip (fingerprint %s, recorded %s) — refusing to serve a state no client was acked",
			snap.Name, got, snap.Fingerprint)
	}
	return s, nil
}

// JobInfo is a job's externally visible record.
type JobInfo struct {
	ID       int64     `json:"id"`
	Name     string    `json:"name,omitempty"`
	User     string    `json:"user,omitempty"`
	Nodes    int       `json:"nodes"`
	Estimate int64     `json:"estimate"`
	Deadline int64     `json:"deadline,omitempty"`
	Status   JobStatus `json:"status"`
	Submit   int64     `json:"submit"`
	Start    int64     `json:"start,omitempty"`
	End      int64     `json:"end,omitempty"`
}

// Job returns one job's record, or false when the ID is unknown (never
// issued, or evicted from the bounded history).
func (s *Session) Job(id int64) (JobInfo, bool) {
	st, ok := s.jobs[job.ID(id)]
	if !ok {
		return JobInfo{}, false
	}
	info := JobInfo{ID: int64(st.id), Name: st.spec.Name, User: st.spec.User,
		Nodes: st.spec.Nodes, Estimate: st.spec.Estimate, Deadline: st.spec.Deadline,
		Status: st.status, Submit: st.submit}
	switch st.status {
	case StatusRunning:
		info.Start = st.start
	case StatusDone:
		info.Start, info.End = st.start, st.end
	}
	return info, true
}
