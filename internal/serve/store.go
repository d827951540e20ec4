package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"jobsched/internal/telemetry"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound: the named session does not exist.
	ErrNotFound = errors.New("serve: session not found")
	// ErrExists: session creation collided with an existing name.
	ErrExists = errors.New("serve: session already exists")
	// ErrBusy: the session's bounded intake queue is full — explicit
	// load-shedding, mapped to 503 + Retry-After.
	ErrBusy = errors.New("serve: session busy, submission queue full")
	// ErrDraining: the daemon is shutting down and refuses new work.
	ErrDraining = errors.New("serve: daemon draining")
)

const (
	configFile = "config.json"
	walFile    = "wal.jsonl"
	auditFile  = "audit.jsonl"
)

// StoreOptions tune the service layer; zero values take defaults.
type StoreOptions struct {
	// SnapshotEvery triggers a snapshot after this many committed WAL
	// records (default 256). Snapshots only accelerate recovery — the
	// WAL alone is always sufficient.
	SnapshotEvery int
	// IntakeDepth bounds each session's pending-operation queue
	// (default 256); a full queue sheds with ErrBusy instead of queueing
	// unboundedly.
	IntakeDepth int
	// BatchMax caps how many queued operations one commit groups under a
	// single WAL fsync (default 64).
	BatchMax int
	// Audit enables the per-session decision-trace file (audit.jsonl).
	Audit bool
	// Logf receives operational warnings (snapshot failures, recovery
	// events); nil discards them.
	Logf func(format string, args ...any)
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.IntakeDepth == 0 {
		o.IntakeDepth = 256
	}
	if o.BatchMax == 0 {
		o.BatchMax = 64
	}
	return o
}

func (o StoreOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Store multiplexes the durable sessions under one data directory. All
// methods are safe for concurrent use.
type Store struct {
	dir string
	opt StoreOptions

	mu       sync.Mutex
	sessions map[string]*handle
	draining bool
}

// OpenStore opens (creating if needed) the data directory and recovers
// every session found in it. A session that fails recovery fails the
// open: serving a subset would silently answer "not found" for state
// that exists on disk.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	opt = opt.withDefaults()
	root := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	st := &Store{dir: dir, opt: opt, sessions: make(map[string]*handle)}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		h, err := openHandle(name, filepath.Join(root, name), opt)
		if err != nil {
			st.closeAll()
			return nil, fmt.Errorf("serve: recovering session %s: %w", name, err)
		}
		st.sessions[name] = h
		if info, err := h.info(); err == nil {
			opt.logf("session %s recovered: clock=%d wal_seq=%d", name, info.Clock, info.WALSeq)
		}
	}
	return st, nil
}

// closeAll abandons all handles without draining (open-failure path).
func (s *Store) closeAll() {
	for _, h := range s.sessions {
		h.closeIntake()
		<-h.done
	}
}

// Create makes a new durable session and starts its worker.
func (s *Store) Create(name string, cfg Config) error {
	if !nameRE.MatchString(name) {
		return rejectf("serve: invalid session name %q", name)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if _, ok := s.sessions[name]; ok {
		return ErrExists
	}
	dir := filepath.Join(s.dir, "sessions", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: create: %w", err)
	}
	data, err := json.MarshalIndent(cfg, "", " ")
	if err != nil {
		return fmt.Errorf("serve: create: %w", err)
	}
	// The config is written atomically (tmp+rename, both fsynced): a
	// crash mid-create leaves either no config — an empty directory the
	// next open treats as garbage — or a complete one.
	err = writeFileAtomic(dir, configFile, func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	h, err := openHandle(name, dir, s.opt)
	if err != nil {
		return err
	}
	s.sessions[name] = h
	return nil
}

// get resolves a session handle.
func (s *Store) get(name string) (*handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.sessions[name]
	if !ok {
		return nil, ErrNotFound
	}
	return h, nil
}

// Names lists the sessions, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Submit enqueues a batch submission on the named session and waits for
// its commit (applied + fsynced) or failure.
func (s *Store) Submit(ctx context.Context, name string, specs []JobSpec) ([]SubmitResult, error) {
	res, err := s.submit(ctx, name, specs)
	return res.results, err
}

// submit is Submit returning the whole outcome: the HTTP ack also
// reports the clock the jobs were submitted at.
func (s *Store) submit(ctx context.Context, name string, specs []JobSpec) (workResult, error) {
	h, err := s.get(name)
	if err != nil {
		return workResult{}, err
	}
	if s.isDraining() {
		return workResult{}, ErrDraining
	}
	return h.do(ctx, &work{ctx: ctx, op: opSubmit, specs: specs})
}

// Advance moves the named session's clock, waiting for the commit.
func (s *Store) Advance(ctx context.Context, name string, to int64) error {
	h, err := s.get(name)
	if err != nil {
		return err
	}
	if s.isDraining() {
		return ErrDraining
	}
	_, err = h.do(ctx, &work{ctx: ctx, op: opAdvance, at: to})
	return err
}

func (s *Store) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SessionInfo is a session's externally visible summary.
type SessionInfo struct {
	Name    string     `json:"name"`
	Config  Config     `json:"config"`
	Clock   int64      `json:"clock"`
	Pending int        `json:"pending"`
	Running int        `json:"running"`
	Agg     Aggregates `json:"agg"`
	WALSeq  uint64     `json:"wal_seq"`
	// Fingerprint is the state hash crash-recovery equality is checked
	// against (hex).
	Fingerprint string `json:"fingerprint"`
}

// Info summarizes the named session.
func (s *Store) Info(name string) (SessionInfo, error) {
	h, err := s.get(name)
	if err != nil {
		return SessionInfo{}, err
	}
	return h.info()
}

// Job returns one job's record from the named session.
func (s *Store) Job(name string, id int64) (JobInfo, error) {
	h, err := s.get(name)
	if err != nil {
		return JobInfo{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken != nil {
		return JobInfo{}, h.broken
	}
	ji, ok := h.sess.Job(id)
	if !ok {
		return JobInfo{}, fmt.Errorf("serve: job %d: %w", id, ErrNotFound)
	}
	return ji, nil
}

// StartDraining flips the store into drain mode: new sessions and new
// mutations are refused with ErrDraining, reads keep serving. Call
// before shutting the HTTP listener down so in-flight requests get the
// explicit refusal rather than a connection reset.
func (s *Store) StartDraining() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
}

// Drain closes every session's intake, waits for the workers to commit
// what was already queued, flush final snapshots, and close their logs.
// It returns the first finalization error (the daemon exits nonzero on
// it, so a failed final flush is loud, not silent).
func (s *Store) Drain(ctx context.Context) error {
	s.StartDraining()
	s.mu.Lock()
	handles := make([]*handle, 0, len(s.sessions))
	for _, h := range s.sessions {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	var firstErr error
	for _, h := range handles {
		h.closeIntake()
	}
	for _, h := range handles {
		select {
		case <-h.done:
			if err := h.finalErr(); err != nil && firstErr == nil {
				firstErr = err
			}
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		}
	}
	return firstErr
}

// work is one mutation awaiting the session worker.
type work struct {
	ctx   context.Context
	op    string
	specs []JobSpec
	at    int64
	reply chan workResult
}

type workResult struct {
	results []SubmitResult
	// clock is the session clock a submission was applied at. Only the
	// apply itself knows it: once the commit releases the session lock, a
	// concurrent advance may have moved the clock on.
	clock int64
	err   error
}

// handle owns one session: a bounded intake queue feeding a single
// worker goroutine that applies operations, group-commits them to the
// WAL, and snapshots periodically. The worker is the only writer of the
// session state; read endpoints take mu for point-in-time views.
type handle struct {
	name string
	dir  string
	opt  StoreOptions

	// sendMu guards closed/intake against a concurrent close: a send on
	// a closed channel panics, so senders hold the read lock.
	sendMu sync.RWMutex
	closed bool
	intake chan *work
	done   chan struct{}

	mu        sync.Mutex
	sess      *Session
	wal       *WAL
	auditF    *os.File
	audit     *telemetry.JSONL
	sinceSnap int
	// broken records an unrecoverable failure (disk reload failed); the
	// session refuses everything until restart.
	broken error
	// finErr is the finalization outcome, valid once done is closed.
	finErr error
}

// openHandle recovers the session from its directory and starts its
// worker.
func openHandle(name, dir string, opt StoreOptions) (*handle, error) {
	h := &handle{
		name:   name,
		dir:    dir,
		opt:    opt,
		intake: make(chan *work, opt.IntakeDepth),
		done:   make(chan struct{}),
	}
	if opt.Audit {
		f, err := os.OpenFile(filepath.Join(dir, auditFile), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("serve: audit log: %w", err)
		}
		h.auditF = f
		h.audit = telemetry.NewJSONL(f)
	}
	if err := h.loadSession(); err != nil {
		if h.auditF != nil {
			cerr := h.auditF.Close()
			_ = cerr // the load failure is the actionable error
		}
		return nil, err
	}
	go h.worker()
	return h, nil
}

// loadSession rebuilds the session from its directory: config, then
// snapshot (if any), then WAL replay of the suffix past the snapshot.
//
// A version-1 snapshot carries a fingerprint this code no longer
// computes, so it cannot be self-checked: it is ignored and the whole
// WAL replayed instead, which is always possible because the WAL is
// never truncated. The first snapshot the session writes replaces it.
func (h *handle) loadSession() error {
	data, err := os.ReadFile(filepath.Join(h.dir, configFile))
	if err != nil {
		return fmt.Errorf("serve: session %s: reading config: %w", h.name, err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("serve: session %s: config: %w", h.name, err)
	}
	snap, err := readSnapshot(h.dir)
	if err != nil {
		return err
	}
	if snap != nil && snap.Version == 1 {
		h.opt.logf("session %s: ignoring version-1 snapshot at seq %d, replaying the whole wal", h.name, snap.WALSeq)
		snap = nil
	}
	wal, recs, err := OpenWAL(filepath.Join(h.dir, walFile))
	if err != nil {
		return err
	}
	sess, replayed, err := rebuild(h.name, cfg, snap, recs, h.audit)
	if err != nil {
		cerr := wal.Close()
		_ = cerr // the rebuild failure is the actionable error
		return err
	}
	h.sess, h.wal = sess, wal
	// The replayed suffix counts towards the next snapshot: a session
	// that just reloaded should bound its replay again as soon as one
	// that did not.
	h.sinceSnap = replayed
	return nil
}

// rebuild restores the snapshot (nil = start from an empty session) and
// replays the WAL records past it; it also returns how many those were.
// audit is the concrete recorder, not the Recorder interface, so a nil
// pointer stays nil-comparable (a typed nil wrapped in the interface
// would pass the nil checks and then be invoked).
func rebuild(name string, cfg Config, snap *Snapshot, recs []Record, audit *telemetry.JSONL) (*Session, int, error) {
	var sess *Session
	var err error
	if snap == nil {
		sess, err = NewSession(name, cfg)
	} else if snap.WALSeq > uint64(len(recs)) {
		err = fmt.Errorf("serve: session %s: snapshot is at seq %d but wal ends at %d", name, snap.WALSeq, len(recs))
	} else {
		sess, err = RestoreSession(snap)
		recs = recs[snap.WALSeq:] // sequence numbers are consecutive from 1
	}
	if err != nil {
		return nil, 0, err
	}
	if audit != nil {
		sess.SetAudit(audit)
	}
	for _, rec := range recs {
		if err := sess.Apply(rec); err != nil {
			return nil, 0, fmt.Errorf("serve: session %s: replaying wal: %w", name, err)
		}
	}
	return sess, len(recs), nil
}

// do enqueues a mutation and waits for its outcome.
func (h *handle) do(ctx context.Context, w *work) (workResult, error) {
	w.reply = make(chan workResult, 1)
	h.sendMu.RLock()
	if h.closed {
		h.sendMu.RUnlock()
		return workResult{}, ErrDraining
	}
	select {
	case h.intake <- w:
		h.sendMu.RUnlock()
	default:
		h.sendMu.RUnlock()
		return workResult{}, ErrBusy
	}
	// The reply always comes: workers answer every dequeued work, and
	// drain commits the queue before exiting. Waiting on ctx here would
	// abandon the reply, not cancel the work — cancellation is threaded
	// into the apply itself via the session's interrupt hook.
	res := <-w.reply
	return res, res.err
}

func (h *handle) closeIntake() {
	h.sendMu.Lock()
	defer h.sendMu.Unlock()
	if !h.closed {
		h.closed = true
		close(h.intake)
	}
}

func (h *handle) finalErr() error {
	<-h.done
	return h.finErr
}

func (h *handle) info() (SessionInfo, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken != nil {
		return SessionInfo{}, h.broken
	}
	p, r := h.sess.Counts()
	return SessionInfo{
		Name:        h.name,
		Config:      h.sess.ConfigValue(),
		Clock:       h.sess.Clock(),
		Pending:     p,
		Running:     r,
		Agg:         h.sess.Agg(),
		WALSeq:      h.wal.LastSeq(),
		Fingerprint: fmt.Sprintf("%016x", h.sess.Fingerprint()),
	}, nil
}

// worker is the session's single writer: it drains the intake queue in
// batches and commits each batch under one WAL fsync.
func (h *handle) worker() {
	defer close(h.done)
	for {
		w, ok := <-h.intake
		if !ok {
			h.finErr = h.finalize()
			return
		}
		batch := []*work{w}
		for len(batch) < h.opt.BatchMax {
			w2, ok2, more := tryRecv(h.intake)
			if !ok2 {
				if !more {
					h.commit(batch)
					h.finErr = h.finalize()
					return
				}
				break
			}
			batch = append(batch, w2)
		}
		h.commit(batch)
	}
}

// tryRecv is a non-blocking receive: (value, received, channelStillOpen).
func tryRecv(ch chan *work) (*work, bool, bool) {
	select {
	case w, ok := <-ch:
		if !ok {
			return nil, false, false
		}
		return w, true, true
	default:
		return nil, false, true
	}
}

// commit applies a batch to the session, appends the resulting records
// under a single fsync, and only then acknowledges — the WAL therefore
// holds exactly the operations clients were (or are about to be) acked.
// A failure mid-apply (panic, interrupt, invariant breach) poisons the
// in-memory state; commit heals it by reloading from disk, which
// excludes every unlogged operation, and fails the whole batch so no
// client confuses a rolled-back op for a committed one.
func (h *handle) commit(batch []*work) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken != nil {
		for _, w := range batch {
			w.reply <- workResult{err: h.broken}
		}
		return
	}
	var (
		recs    []Record
		applied []*work
		results []workResult
	)
	for i, w := range batch {
		if err := w.ctx.Err(); err != nil {
			// Cancelled while queued: drop before touching state — no WAL
			// growth, no replay cost.
			w.reply <- workResult{err: fmt.Errorf("serve: request abandoned before apply: %w", err)}
			continue
		}
		res, rec, poison := h.applyOne(w)
		if poison != nil {
			h.recoverLocked(poison)
			// %w preserves the cause's sentinels (ErrInterrupted, deadline)
			// so the HTTP layer maps a timed-out apply to 504, not 500.
			failErr := fmt.Errorf("serve: session reloaded after failed apply (%w): operation rolled back, safe to retry", poison)
			for _, aw := range applied {
				aw.reply <- workResult{err: failErr}
			}
			w.reply <- workResult{err: failErr}
			for _, rest := range batch[i+1:] {
				rest.reply <- workResult{err: failErr}
			}
			return
		}
		if rec == nil {
			// Clean rejection: no state change, answer immediately.
			w.reply <- res
			continue
		}
		recs = append(recs, *rec)
		applied = append(applied, w)
		results = append(results, res)
	}
	if len(recs) == 0 {
		return
	}
	if err := h.wal.Append(recs); err != nil {
		// Unknown durability: reload from disk (OpenWAL truncates any torn
		// tail) and report the outcome as unknown.
		h.recoverLocked(err)
		failErr := fmt.Errorf("serve: wal append failed, outcome unknown after reload: %w", err)
		for _, w := range applied {
			w.reply <- workResult{err: failErr}
		}
		return
	}
	for i, w := range applied {
		w.reply <- results[i]
	}
	h.sinceSnap += len(recs)
	if h.sinceSnap >= h.opt.SnapshotEvery {
		h.snapshotLocked()
	}
}

// applyOne runs one operation against the session with the request's
// cancellation threaded into the scheduler's pass loops. Returns the
// client-visible result, the WAL record to commit (nil for clean
// rejections), and a non-nil poison error when the in-memory state can
// no longer be trusted.
func (h *handle) applyOne(w *work) (res workResult, rec *Record, poison error) {
	defer func() {
		if r := recover(); r != nil {
			poison = fmt.Errorf("panic in apply: %v", r)
			res = workResult{err: poison}
		}
	}()
	ctx := w.ctx
	h.sess.SetInterrupt(func() bool { return ctx.Err() != nil })
	defer h.sess.SetInterrupt(nil)
	switch w.op {
	case opSubmit:
		rs, err := h.sess.Submit(w.specs)
		if err != nil {
			if errors.Is(err, ErrRejected) {
				return workResult{err: err}, nil, nil
			}
			return workResult{err: err}, nil, err
		}
		at := h.sess.Clock()
		return workResult{results: rs, clock: at}, &Record{Op: opSubmit, At: at, Jobs: w.specs}, nil
	case opAdvance:
		if err := h.sess.Advance(w.at); err != nil {
			if errors.Is(err, ErrRejected) {
				return workResult{err: err}, nil, nil
			}
			return workResult{err: err}, nil, err
		}
		return workResult{}, &Record{Op: opAdvance, At: w.at}, nil
	default:
		return workResult{err: fmt.Errorf("serve: unknown op %q", w.op)}, nil, nil
	}
}

// recoverLocked heals a poisoned in-memory session by reloading from
// disk — the WAL holds exactly the committed operations, so the reload
// excludes whatever just failed. Requires h.mu.
func (h *handle) recoverLocked(cause error) {
	h.opt.logf("session %s: reloading after: %v", h.name, cause)
	if err := h.wal.Close(); err != nil {
		h.opt.logf("session %s: closing wal before reload: %v", h.name, err)
	}
	if err := h.loadSession(); err != nil {
		// Disk state unreadable: the session is out of service until a
		// restart (or operator repair); refusing loudly beats serving a
		// state that diverged from what clients were acked.
		h.broken = fmt.Errorf("serve: session %s unavailable after failed reload: %w", h.name, err)
		h.opt.logf("%v", h.broken)
	}
}

// snapshotLocked writes a snapshot at the current WAL position. Failure
// is non-fatal — the WAL alone still recovers — but logged loudly.
// Requires h.mu.
func (h *handle) snapshotLocked() {
	if h.audit != nil {
		// The audit trace rides the snapshot cadence to disk; its loss
		// window is bounded without paying an fsync per event.
		if err := h.audit.Flush(); err != nil {
			h.opt.logf("session %s: audit flush: %v", h.name, err)
		}
	}
	if err := h.writeSnapshot(); err != nil {
		h.opt.logf("session %s: snapshot: %v", h.name, err)
	}
}

// writeSnapshot atomically replaces the session's snapshot with one at
// the current WAL position, streamed from the live session: no copy of
// the state is built. Requires h.mu.
func (h *handle) writeSnapshot() error {
	err := writeFileAtomic(h.dir, snapshotFile, func(w *bufio.Writer) error {
		return h.sess.writeSnapshot(w, h.wal.LastSeq())
	})
	if err == nil {
		h.sinceSnap = 0
	}
	return err
}

// finalize runs at worker exit: final snapshot, flush and close the
// audit trail, close the WAL.
func (h *handle) finalize() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var firstErr error
	if h.broken == nil && h.sinceSnap > 0 {
		firstErr = h.writeSnapshot()
	}
	if h.audit != nil {
		if err := h.audit.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := h.auditF.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := h.auditF.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := h.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
