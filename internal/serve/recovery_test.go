package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"jobsched/internal/telemetry"
)

// randomSpecs draws a small submission batch.
func randomSpecs(r *rand.Rand, nodes int) []JobSpec {
	specs := make([]JobSpec, 1+r.Intn(3))
	for i := range specs {
		specs[i] = JobSpec{
			Name:     fmt.Sprintf("u%d", r.Intn(100)),
			User:     fmt.Sprintf("user%d", r.Intn(4)),
			Nodes:    1 + r.Intn(nodes),
			Estimate: int64(30 + r.Intn(500)),
		}
		if r.Intn(4) == 0 {
			specs[i].Runtime = specs[i].Estimate / 2
		}
		if r.Intn(5) == 0 {
			specs[i].Deadline = int64(r.Intn(3000))
		}
	}
	return specs
}

// TestRecoveryPropertyRandomOps is the crash-recovery property test: a
// random operation sequence applied through the durable store, with the
// store torn down and reopened at random points (and a snapshot cadence
// small enough that replay exercises snapshot+suffix), must track a
// plain in-memory session applying the same sequence — fingerprints and
// pending orders equal at every reopen and at the end, in every cell of
// the grid.
func TestRecoveryPropertyRandomOps(t *testing.T) {
	const nodes = 32
	for ci, cfg := range gridConfigs(nodes) {
		cfg.MaxPending = 50
		name := cfg.Order + "/" + cfg.Start
		for seed := int64(3 * ci); seed < int64(3*ci+3); seed++ {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opt := StoreOptions{SnapshotEvery: 5, IntakeDepth: 8, BatchMax: 4}

			ref, err := NewSession("prop", cfg)
			if err != nil {
				t.Fatal(err)
			}
			store, err := OpenStore(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Create("prop", cfg); err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			clock := int64(0)
			for op := 0; op < 120; op++ {
				switch r.Intn(4) {
				case 0, 1:
					specs := randomSpecs(r, nodes)
					if _, err := store.Submit(ctx, "prop", specs); err != nil {
						t.Fatalf("%s seed %d op %d submit: %v", name, seed, op, err)
					}
					if _, err := ref.Submit(specs); err != nil {
						t.Fatalf("%s seed %d op %d ref submit: %v", name, seed, op, err)
					}
				case 2:
					clock += int64(r.Intn(200))
					if err := store.Advance(ctx, "prop", clock); err != nil {
						t.Fatalf("%s seed %d op %d advance: %v", name, seed, op, err)
					}
					if err := ref.Advance(clock); err != nil {
						t.Fatalf("%s seed %d op %d ref advance: %v", name, seed, op, err)
					}
				case 3:
					if r.Intn(3) != 0 {
						continue
					}
					// Tear the store down (graceful here; the torn-tail and
					// kill -9 paths get their own tests) and recover.
					if err := store.Drain(ctx); err != nil {
						t.Fatalf("%s seed %d op %d drain: %v", name, seed, op, err)
					}
					store, err = OpenStore(dir, opt)
					if err != nil {
						t.Fatalf("%s seed %d op %d reopen: %v", name, seed, op, err)
					}
					info, err := store.Info("prop")
					if err != nil {
						t.Fatal(err)
					}
					if want := fmt.Sprintf("%016x", ref.Fingerprint()); info.Fingerprint != want {
						t.Fatalf("%s seed %d op %d: recovered fingerprint %s, want %s", name, seed, op, info.Fingerprint, want)
					}
					h, err := store.get("prop")
					if err != nil {
						t.Fatal(err)
					}
					h.mu.Lock()
					got := pendingWalk(h.sess)
					h.mu.Unlock()
					if want := pendingWalk(ref); !slices.Equal(got, want) {
						t.Fatalf("%s seed %d op %d: recovered pending order %v, want %v", name, seed, op, got, want)
					}
				}
			}
			info, err := store.Info("prop")
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%016x", ref.Fingerprint()); info.Fingerprint != want {
				t.Fatalf("%s seed %d final: fingerprint %s, want %s", name, seed, info.Fingerprint, want)
			}
			if info.Agg != ref.Agg() {
				t.Fatalf("%s seed %d final aggregates: %+v vs %+v", name, seed, info.Agg, ref.Agg())
			}
			if err := store.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecoveryTornWALTail simulates kill -9 mid-append: committed
// operations survive, the torn line is discarded, and the store keeps
// accepting work.
func TestRecoveryTornWALTail(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("s", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Submit(ctx, "s", []JobSpec{{Nodes: 4, Estimate: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Advance(ctx, "s", 40); err != nil {
		t.Fatal(err)
	}
	pre, err := store.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Append half a record, as a crash mid-write would leave.
	walPath := filepath.Join(dir, "sessions", "s", walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"op":"subm`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	store, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	post, err := store.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if post.Fingerprint != pre.Fingerprint {
		t.Fatalf("recovered fingerprint %s != pre-crash %s", post.Fingerprint, pre.Fingerprint)
	}
	if post.WALSeq != 2 {
		t.Fatalf("wal seq %d after torn-tail recovery, want 2", post.WALSeq)
	}
	// And the truncated log accepts new commits on a clean boundary.
	if _, err := store.Submit(ctx, "s", []JobSpec{{Nodes: 2, Estimate: 50}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	store, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := store.Info("s"); err != nil || info.WALSeq != 3 {
		t.Fatalf("after post-recovery commit: info=%+v err=%v", info, err)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// countdownCtx reports no error for the first n Err() calls, then a
// deadline — a request whose budget expires after the pre-apply check
// but during the apply itself.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.DeadlineExceeded
}

// TestRecoveryPoisonPreservesCause: an operation interrupted mid-apply
// poisons and reloads the session, but the reply must still carry the
// interrupt sentinel — the HTTP layer maps it to 504, not a generic
// 500 — and the session keeps serving afterwards.
func TestRecoveryPoisonPreservesCause(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("s", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	// n=1: the commit loop's pre-apply Err() check passes, the interrupt
	// hook's first poll inside Advance fires.
	ctx := &countdownCtx{Context: context.Background(), n: 1}
	err = store.Advance(ctx, "s", 100)
	if err == nil {
		t.Fatal("mid-apply interrupt not surfaced")
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("poisoned apply lost its cause: got %v, want errors.Is ErrInterrupted", err)
	}
	// The reload healed the session: the same advance now commits.
	if err := store.Advance(context.Background(), "s", 100); err != nil {
		t.Fatalf("advance after reload: %v", err)
	}
	if info, err := store.Info("s"); err != nil || info.Clock != 100 {
		t.Fatalf("after reload: info=%+v err=%v", info, err)
	}
	if err := store.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReloadKeepsSnapshotCadence: a reload counts the WAL suffix
// it replayed towards the next snapshot, so a session that has just been
// poisoned snapshots after SnapshotEvery records in all, not after
// SnapshotEvery more.
func TestRecoveryReloadKeepsSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenStore(dir, StoreOptions{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("s", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	commit := func() {
		t.Helper()
		if _, err := store.Submit(ctx, "s", []JobSpec{{Nodes: 1, Estimate: 60}}); err != nil {
			t.Fatal(err)
		}
	}
	// snapshotSeq is the WAL position of the published snapshot (0 =
	// none). Info takes the lock the committer holds while it snapshots,
	// so the file is settled once it returns.
	snapshotSeq := func() uint64 {
		t.Helper()
		if _, err := store.Info("s"); err != nil {
			t.Fatal(err)
		}
		snap, err := readSnapshot(filepath.Join(dir, "sessions", "s"))
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			return 0
		}
		return snap.WALSeq
	}
	for i := 0; i < 5; i++ {
		commit()
	}
	if err := store.Advance(&countdownCtx{Context: ctx, n: 1}, "s", 100); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("poisoning advance returned %v", err)
	}
	for seq := uint64(6); seq <= 8; seq++ {
		if got := snapshotSeq(); got != 0 {
			t.Fatalf("snapshot at seq %d before record %d committed", got, seq)
		}
		commit()
	}
	if got := snapshotSeq(); got != 8 {
		t.Fatalf("after 5 records, a reload and 3 more, the snapshot is at seq %d, want 8", got)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryInterruptedEmptyPassRollsBack: a request whose budget
// expires inside a pass that has picked nothing yet must take the
// rolled-back path — 504, "safe to retry", no WAL record — not commit a
// "nothing startable" outcome that replaying the record would
// contradict by starting the job.
func TestRecoveryInterruptedEmptyPassRollsBack(t *testing.T) {
	for _, start := range []string{"List", "EASY-Backfilling", "Backfilling"} {
		srv, store := newTestServer(t, StoreOptions{}, ServerOptions{})
		if err := store.Create("s", Config{Nodes: 8, Start: start}); err != nil {
			t.Fatal(err)
		}
		// n=2: the commit loop's pre-apply Err() check and the interrupt
		// hook's first poll pass; every later poll reports the deadline.
		ctx := &countdownCtx{Context: context.Background(), n: 2}
		_, err := store.Submit(ctx, "s", []JobSpec{{Nodes: 4, Estimate: 100}})
		if !errors.Is(err, ErrInterrupted) || !strings.Contains(fmt.Sprint(err), "rolled back, safe to retry") {
			t.Fatalf("%s: interrupted submit returned %v", start, err)
		}
		w := httptest.NewRecorder()
		srv.writeError(w, err, 0)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: interrupted submit maps to %d, want 504", start, w.Code)
		}
		info, err := store.Info("s")
		if err != nil {
			t.Fatal(err)
		}
		if info.WALSeq != 0 || info.Agg.Submitted != 0 {
			t.Fatalf("%s: rolled-back submit left wal_seq=%d agg=%+v", start, info.WALSeq, info.Agg)
		}
		// The retry commits and the job starts.
		rs, err := store.Submit(context.Background(), "s", []JobSpec{{Nodes: 4, Estimate: 100}})
		if err != nil {
			t.Fatalf("%s: retry: %v", start, err)
		}
		if ji, err := store.Job("s", rs[0].ID); err != nil || ji.Status != StatusRunning {
			t.Fatalf("%s: retried job: %+v err=%v", start, ji, err)
		}
	}
}

// TestAuditStartEventsClassified: with the audit trail on, start events
// carry the engine's start-reason classification, no per-pass events
// are written, and replaying the WAL on reopen emits nothing.
func TestAuditStartEventsClassified(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	opt := StoreOptions{Audit: true}
	store, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("s", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	// Job 1 leaves 2 nodes free, job 2 (the head) must wait for it until
	// t=100, job 3 fits beside job 1 and ends before that shadow time.
	if _, err := store.Submit(ctx, "s", []JobSpec{
		{Nodes: 6, Estimate: 100}, {Nodes: 8, Estimate: 100}, {Nodes: 2, Estimate: 50},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Advance(ctx, "s", 100); err != nil {
		t.Fatal(err)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	sessDir := filepath.Join(dir, "sessions", "s")
	readAudit := func() []telemetry.Event {
		f, err := os.Open(filepath.Join(sessDir, auditFile))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		evs, err := telemetry.ReadJSONL(f)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	evs := readAudit()
	starts := map[int64]telemetry.Event{}
	for _, ev := range evs {
		switch ev.Type {
		case telemetry.EventPass:
			t.Fatalf("per-pass event in the audit trail: %+v", ev)
		case telemetry.EventStart:
			starts[ev.Job] = ev
		}
	}
	want := map[int64]telemetry.Event{
		1: {Starter: "EASY-Backfilling", Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None},
		2: {Starter: "EASY-Backfilling", Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None},
		3: {Starter: "EASY-Backfilling", Reason: telemetry.ReasonBackfillBeforeShadow, Head: 2, Shadow: 100},
	}
	for id, w := range want {
		got, ok := starts[id]
		if !ok {
			t.Fatalf("no start event for job %d in %+v", id, evs)
		}
		if got.Starter != w.Starter || got.Reason != w.Reason || got.Head != w.Head || got.Shadow != w.Shadow {
			t.Fatalf("job %d start event %+v, want starter=%q reason=%q head=%d shadow=%d",
				id, got, w.Starter, w.Reason, w.Head, w.Shadow)
		}
	}
	if starts[3].Depth == 0 {
		t.Fatalf("backfilled job's start event has no queue depth: %+v", starts[3])
	}

	// Drop the snapshot so the reopen replays the whole WAL: the trail
	// must not grow.
	if err := os.Remove(filepath.Join(sessDir, snapshotFile)); err != nil {
		t.Fatal(err)
	}
	store, err = OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if after := readAudit(); len(after) != len(evs) {
		t.Fatalf("replay grew the audit trail from %d to %d events", len(evs), len(after))
	}
}

// TestRecoveryTornSnapshotTemp simulates kill -9 mid-snapshot-write:
// the temp file is ignored and the WAL (plus any previously published
// snapshot) recovers the state.
func TestRecoveryTornSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// SnapshotEvery 3 so a snapshot is published mid-sequence.
	store, err := OpenStore(dir, StoreOptions{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("s", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := store.Submit(ctx, "s", []JobSpec{{Nodes: 1, Estimate: 60}}); err != nil {
			t.Fatal(err)
		}
	}
	pre, err := store.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	sdir := filepath.Join(dir, "sessions", "s")
	if _, err := os.Stat(filepath.Join(sdir, snapshotFile)); err != nil {
		t.Fatalf("expected a published snapshot: %v", err)
	}
	if err := os.WriteFile(filepath.Join(sdir, snapshotFile+".tmp"), []byte(`{"version":1,"na`), 0o644); err != nil {
		t.Fatal(err)
	}

	store, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("torn snapshot temp must recover: %v", err)
	}
	post, err := store.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if post.Fingerprint != pre.Fingerprint {
		t.Fatalf("recovered %s != pre-crash %s", post.Fingerprint, pre.Fingerprint)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRefusesCorruptSnapshot: a published-but-tampered snapshot
// must fail the open loudly, not serve a state clients were never acked.
func TestRecoveryRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store, err := OpenStore(dir, StoreOptions{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("s", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Submit(ctx, "s", []JobSpec{{Nodes: 1, Estimate: 60}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "sessions", "s", snapshotFile)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(string(data))
	// Flip the submitted counter inside the published snapshot.
	tampered = []byte(replaceOnce(t, string(tampered), `"submitted":1`, `"submitted":2`))
	if err := os.WriteFile(snapPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err == nil {
		t.Fatal("tampered snapshot served")
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	i := indexOf(s, old)
	if i < 0 {
		t.Fatalf("%q not found in snapshot", old)
	}
	return s[:i] + new + s[i+len(old):]
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
