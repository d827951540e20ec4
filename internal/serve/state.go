package serve

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"fmt"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

// section names one of the three ordered job lists a session's state
// consists of. Fingerprint, snapshot and restore all see the jobs
// through them, in the order eachJob defines.
type section int

const (
	secPending section = iota
	secRunning
	secRetired
	numSections
)

// sectionKeys are the sections' field names in the snapshot document.
var sectionKeys = [numSections]string{"pending", "running", "retired"}

// hash64 is the word-at-a-time hash under the session fingerprint: every
// step is a bijection of the state for a fixed input word, so two field
// sequences of one shape that differ in one field never collide, and
// sum's finalizer spreads a difference over all 64 bits — which is what
// lets job digests be added up.
type hash64 uint64

const hashSeed hash64 = 0x9e3779b97f4a7c15

func (h *hash64) word(v uint64) {
	x := (uint64(*h) ^ v) * 0xff51afd7ed558ccd
	*h = hash64(x ^ x>>32)
}

func (h *hash64) int(v int64) { h.word(uint64(v)) }

// str folds a length-prefixed string, eight bytes to the word.
func (h *hash64) str(s string) {
	h.int(int64(len(s)))
	for len(s) > 0 {
		var w uint64
		n := min(len(s), 8)
		for i := 0; i < n; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.word(w)
		s = s[n:]
	}
}

// sum finalizes (the murmur3 64-bit finalizer).
func (h hash64) sum() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// jobDigest hashes one job record as it stands in a section. ordinal is
// the record's retire ordinal (see retireOrdinal), 0 in the other two
// sections; a plan rank only when there is one (see Fingerprint).
func jobDigest(st *jobState, ordinal int64) uint64 {
	h := hashSeed
	h.int(int64(st.id))
	h.str(string(st.status))
	h.str(st.spec.Name)
	h.str(st.spec.User)
	h.int(int64(st.spec.Nodes))
	h.int(st.spec.Estimate)
	h.int(st.spec.Runtime)
	h.int(st.spec.Deadline)
	h.int(st.submit)
	h.int(st.start)
	h.int(st.end)
	h.int(int64(st.seq))
	h.int(ordinal)
	if st.rank > 0 {
		h.int(int64(st.rank))
	}
	return h.sum()
}

// fold enters st, as it stands now, into a section's digest sum; unfold
// takes it out again. Every change to a job record happens between an
// unfold and a fold, which is what keeps Fingerprint O(1).
func (s *Session) fold(sec section, st *jobState, ordinal int64) {
	st.digest = jobDigest(st, ordinal)
	s.sums[sec] += st.digest
}

func (s *Session) unfold(sec section, st *jobState) { s.sums[sec] -= st.digest }

// retireOrdinal is the position of s.retired[index] among all jobs the
// session ever retired, counting from 1. Folding it into the record's
// digest makes the order of the ring — which decides future evictions —
// part of the fingerprint without storing anything: the aggregates count
// the retirements.
func (s *Session) retireOrdinal(index int) int64 {
	return s.agg.Completed + s.agg.Expired + s.agg.Shed - int64(len(s.retired)) + int64(index) + 1
}

// Fingerprint hashes the session's complete observable state: config,
// clocks, counters, the plan length of a plan order, and every live and
// retired job record. Two sessions with equal fingerprints serve
// identical answers to every query and make identical future scheduling
// decisions — this is the equality the crash-recovery tests assert.
//
// The definition (serve-session-v2) is the scalar header plus, per
// section, the job count and the wrapping sum of the jobs' digests. The
// sums are maintained as jobs move between sections, so the cost is
// independent of the number of jobs. A sum ignores order: retired order
// is in the digests (retireOrdinal), and so is a plan order's pending
// plan (ranks); the arrivals after it are in ascending id and running
// jobs in ascending start seq, which RestoreSession checks. The plan
// length and ranks are hashed only when nonzero, so a session that never
// planned (every FCFS and Garey&Graham one) hashes as it did before they
// existed. It is an equality and corruption check, not an authenticator:
// whoever can edit a snapshot can also recompute it.
func (s *Session) Fingerprint() uint64 {
	h := hashSeed
	h.str("serve-session-v2")
	h.str(s.name)
	h.int(int64(s.cfg.Nodes))
	h.str(s.cfg.Order)
	h.str(s.cfg.Start)
	h.int(int64(s.cfg.MaxPending))
	h.int(int64(s.cfg.DoneHistory))
	h.int(s.clock)
	h.int(s.nextID)
	h.int(int64(s.step.StartSeq()))
	h.int(int64(s.step.Free()))
	h.int(s.agg.Submitted)
	h.int(s.agg.Started)
	h.int(s.agg.Completed)
	h.int(s.agg.Expired)
	h.int(s.agg.Shed)
	h.int(s.agg.SumWait)
	h.int(s.agg.SumResponse)
	if size := s.sch.PlanSize(); size > 0 {
		h.int(int64(size))
	}
	for sec, n := range s.sectionLens() {
		h.int(int64(n))
		h.word(s.sums[sec])
	}
	return h.sum()
}

// sectionLens counts the jobs of each section.
func (s *Session) sectionLens() [numSections]int {
	return [numSections]int{s.sch.QueueLen(), s.step.RunningLen(), len(s.retired)}
}

// eachJob visits a section's jobs in its order: pending in the order
// policy's current order (ranked plan first, then arrivals by id), running
// by start seq, retired oldest first. It stops at visit's first error.
func (s *Session) eachJob(sec section, visit func(*jobState) error) error {
	switch sec {
	case secPending:
		c := s.sch.Waiting()
		for j := c.Next(); j != nil; j = c.Next() {
			if err := visit(s.jobs[j.ID]); err != nil {
				return err
			}
		}
	case secRunning:
		for _, e := range s.step.Entries() {
			if err := visit(s.jobs[e.Job.ID]); err != nil {
				return err
			}
		}
	case secRetired:
		for _, id := range s.retired {
			if err := visit(s.jobs[id]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Session) snapHeader(walSeq uint64) snapHeader {
	return snapHeader{
		Version:  snapshotVersion,
		Name:     s.name,
		Config:   s.cfg,
		Clock:    s.clock,
		NextID:   s.nextID,
		StartSeq: s.step.StartSeq(),
		WALSeq:   walSeq,
		Agg:      s.agg,
		PlanSize: s.sch.PlanSize(),
	}
}

func (st *jobState) snap() snapJob {
	return snapJob{ID: int64(st.id), Spec: st.spec, Submit: st.submit,
		Start: st.start, End: st.end, Seq: st.seq, Rank: st.rank, Status: string(st.status)}
}

// Snapshot captures the session's durable state as of WAL sequence
// walSeq (every record up to and including it is folded in). The store
// does not build this document; it streams the same bytes with
// writeSnapshot.
func (s *Session) Snapshot(walSeq uint64) *Snapshot {
	lens := s.sectionLens()
	collect := func(sec section) []snapJob {
		jobs := make([]snapJob, 0, lens[sec])
		err := s.eachJob(sec, func(st *jobState) error {
			jobs = append(jobs, st.snap())
			return nil
		})
		_ = err // the collecting visitor never fails
		return jobs
	}
	return &Snapshot{
		snapHeader:  s.snapHeader(walSeq),
		Pending:     collect(secPending),
		Running:     collect(secRunning),
		Retired:     collect(secRetired),
		Fingerprint: fmt.Sprintf("%016x", s.Fingerprint()),
	}
}

// writeSnapshot streams the document json.Marshal(s.Snapshot(walSeq))
// would build, one job at a time through appendSnapJob, so that a
// snapshot costs no memory proportional to the session.
func (s *Session) writeSnapshot(w *bufio.Writer, walSeq uint64) error {
	head, err := json.Marshal(s.snapHeader(walSeq))
	if err != nil {
		return err
	}
	// The header's closing brace is left off: the sections and the
	// fingerprint continue the same object.
	if _, err := w.Write(head[:len(head)-1]); err != nil {
		return err
	}
	var buf []byte // one job's bytes, reused across jobs
	for sec, key := range sectionKeys {
		if _, err := fmt.Fprintf(w, ",%q:[", key); err != nil {
			return err
		}
		first := true
		err := s.eachJob(section(sec), func(st *jobState) error {
			buf = buf[:0]
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = appendSnapJob(buf, st)
			_, err := w.Write(buf)
			return err
		})
		if err != nil {
			return err
		}
		if err := w.WriteByte(']'); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, `,"fingerprint":"%016x"}`, s.Fingerprint())
	return err
}

// adopt enters one restored record into the job table.
func (s *Session) adopt(sj snapJob, status JobStatus) (*jobState, error) {
	sp := sj.Spec.normalized()
	if err := sp.validate(s.cfg.Nodes); err != nil {
		// %v: a bad snapshot is not a client's rejected request.
		return nil, fmt.Errorf("serve: restore %s: job %d: %v", s.name, sj.ID, err)
	}
	id := job.ID(sj.ID)
	if _, dup := s.jobs[id]; dup {
		return nil, fmt.Errorf("serve: restore %s: job %d appears twice", s.name, sj.ID)
	}
	st := &jobState{id: id, spec: sp, status: status,
		submit: sj.Submit, start: sj.Start, end: sj.End, seq: sj.Seq}
	s.jobs[id] = st
	return st, nil
}

// RestoreSession rebuilds a session from a snapshot and verifies the
// result round-trips to the recorded fingerprint; a snapshot that does
// not reproduce its own fingerprint is refused rather than served. The
// restore folds every job through the helper the live transitions use,
// so the check also compares the writer's incrementally kept sums with
// sums rebuilt from the records.
func RestoreSession(snap *Snapshot) (*Session, error) {
	if err := snap.Config.Validate(); err != nil {
		return nil, fmt.Errorf("serve: restore %s: %v", snap.Name, err)
	}
	s, err := NewSession(snap.Name, snap.Config)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	s.clock = snap.Clock
	s.nextID = snap.NextID
	s.agg = snap.Agg

	// Pending jobs re-enter the order policy in its order: a plan order's
	// ranked jobs as the live part of a plan of PlanSize jobs, then the
	// arrivals since by id — the pushes the original session made after
	// its last replan. The sums cannot see that order; its shape is
	// checked here.
	var ranked []*job.Job
	for i, sj := range snap.Pending {
		switch afterArrival := len(ranked) < i; {
		case sj.Rank < 0 || sj.Rank > snap.PlanSize:
			return nil, fmt.Errorf("serve: restore %s: pending job %d has rank %d, outside a plan of %d", snap.Name, sj.ID, sj.Rank, snap.PlanSize)
		case sj.Rank > 0 && (afterArrival || i > 0 && sj.Rank <= snap.Pending[i-1].Rank):
			return nil, fmt.Errorf("serve: restore %s: pending job %d of rank %d follows job %d, not in plan order", snap.Name, sj.ID, sj.Rank, snap.Pending[i-1].ID)
		case sj.Rank == 0 && afterArrival && sj.ID <= snap.Pending[i-1].ID:
			return nil, fmt.Errorf("serve: restore %s: pending job %d follows job %d, not in arrival order", snap.Name, sj.ID, snap.Pending[i-1].ID)
		}
		st, err := s.adopt(sj, StatusPending)
		if err != nil {
			return nil, err
		}
		st.j = coreJob(st.id, st.spec, st.submit)
		st.rank = sj.Rank
		s.fold(secPending, st, 0)
		if st.spec.Deadline > 0 {
			s.deadlines = append(s.deadlines, deadlineEvent{at: st.spec.Deadline, id: st.id})
		}
		if st.rank > 0 {
			ranked = append(ranked, st.j)
		}
	}
	if err := s.sch.RestorePlan(snap.PlanSize, ranked); err != nil {
		return nil, fmt.Errorf("serve: restore %s: %w", snap.Name, err)
	}
	for _, sj := range snap.Pending[len(ranked):] {
		st := s.jobs[job.ID(sj.ID)]
		if err := s.step.Submit(st.j, st.submit); err != nil {
			return nil, fmt.Errorf("serve: restore %s: %w", snap.Name, err)
		}
	}
	heap.Init(&s.deadlines)

	// Likewise running jobs: start order is seq order.
	running := make([]sim.RunEntry, 0, len(snap.Running))
	for i, sj := range snap.Running {
		if i > 0 && sj.Seq <= snap.Running[i-1].Seq {
			return nil, fmt.Errorf("serve: restore %s: running job %d has start seq %d after %d, not in start order", snap.Name, sj.ID, sj.Seq, snap.Running[i-1].Seq)
		}
		st, err := s.adopt(sj, StatusRunning)
		if err != nil {
			return nil, err
		}
		s.fold(secRunning, st, 0)
		running = append(running, sim.RunEntry{Job: coreJob(st.id, st.spec, st.submit),
			Start: st.start, End: st.end, Seq: st.seq})
	}
	if err := s.step.Restore(running, snap.StartSeq); err != nil {
		return nil, fmt.Errorf("serve: restore %s: %w", snap.Name, err)
	}

	// The ring is filled before any record is folded: a retire ordinal
	// counts back from the ring's final length.
	s.retired = make([]job.ID, len(snap.Retired))
	for i, sj := range snap.Retired {
		s.retired[i] = job.ID(sj.ID)
	}
	for i, sj := range snap.Retired {
		switch JobStatus(sj.Status) {
		case StatusDone, StatusExpired, StatusShed:
		default:
			return nil, fmt.Errorf("serve: restore %s: retired job %d has live status %q", snap.Name, sj.ID, sj.Status)
		}
		st, err := s.adopt(sj, JobStatus(sj.Status))
		if err != nil {
			return nil, err
		}
		s.fold(secRetired, st, s.retireOrdinal(i))
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
