package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"jobsched/internal/eval"
)

// Three pinned data directories; never regenerate any of them from
// current code. The first two are each a session directory (config,
// snapshot at WAL seq 6, nine-record WAL) plus the fingerprint the
// session ended at, both produced by applying compatOps below and
// snapshotting after the sixth record.
//
// testdata/compat-v1 was written by the code at commit 329e23d, the last
// one whose Session owned its own completion heap and pass loop. Its
// snapshot is version 1 and its fingerprint serve-session-v1, the
// whole-walk FNV hash fingerprintV1 below keeps alive as an oracle: the
// directory pins the WAL format and the state semantics.
//
// testdata/compat-v2 was written through OpenStore (SnapshotEvery 6) by
// the code of the change that introduced snapshot version 2 and the
// serve-session-v2 fingerprint. It pins both byte for byte.
//
// testdata/compat-v2-plan was written through OpenStore (SnapshotEvery 6)
// by the code at commit 796b3c0, the last one whose snapshots stored
// pending jobs in id order only: a SMART-FFIA/EASY session created with
// the allow_unstable opt-in that code required, snapshotted at WAL seq 6
// while plan jobs waited, ten records in all. It pins the upgrade path of
// a plan-order data directory.
const (
	compatV1Dir   = "testdata/compat-v1"
	compatV2Dir   = "testdata/compat-v2"
	compatPlanDir = "testdata/compat-v2-plan"
)

var compatConfig = Config{Nodes: 16, MaxPending: 3, DoneHistory: 6}

// compatOps is the pinned operation sequence: deadlines that expire and
// that are met, a stale-on-arrival deadline, shed jobs, a history ring
// small enough to evict, and running + pending + retired jobs both at
// the snapshot and at the end.
var compatOps = []Record{
	{Op: opSubmit, Jobs: []JobSpec{
		{Name: "wide", User: "ann", Nodes: 16, Estimate: 100},
		{Name: "late", User: "bob", Nodes: 4, Estimate: 50, Deadline: 80},
		{Name: "short", User: "ann", Nodes: 8, Estimate: 30, Runtime: 10},
	}},
	{Op: opAdvance, At: 50},
	{Op: opSubmit, Jobs: []JobSpec{
		{Name: "small", User: "cy", Nodes: 2, Estimate: 20, Deadline: 200},
		{Name: "shed1", User: "cy", Nodes: 1, Estimate: 5},
		{Name: "stale", User: "bob", Nodes: 1, Estimate: 5, Deadline: 10},
	}},
	{Op: opAdvance, At: 100},
	{Op: opSubmit, Jobs: []JobSpec{
		{Name: "big", User: "dee", Nodes: 12, Estimate: 300, Runtime: 250},
		{Name: "tail", User: "ann", Nodes: 8, Estimate: 40, Deadline: 400},
	}},
	{Op: opAdvance, At: 105},
	{Op: opSubmit, Jobs: []JobSpec{
		{Name: "fill", User: "bob", Nodes: 4, Estimate: 60},
		{Name: "over", User: "bob", Nodes: 16, Estimate: 10, Deadline: 120},
	}},
	{Op: opAdvance, At: 130},
	{Op: opSubmit, Jobs: []JobSpec{{Name: "last", User: "cy", Nodes: 6, Estimate: 500}}},
}

func compatFingerprint(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "fingerprint.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// fingerprintV1 is the serve-session-v1 fingerprint: FNV-1a over the
// header and every job record in section order. Production code computed
// it on every ack until the v2 definition replaced it; it stays here so
// the v1 pin keeps checking that an operation sequence still means the
// same state.
func fingerprintV1(s *Session) string {
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
	for sec, key := range sectionKeys {
		fp.String(key)
		err := s.eachJob(section(sec), func(st *jobState) error {
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
			return nil
		})
		if err != nil {
			panic(err)
		}
	}
	return fmt.Sprintf("%016x", fp.Sum())
}

// copyCompatDir copies a pinned data directory somewhere writable:
// opening a store appends to the WAL and rewrites the snapshot.
func copyCompatDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	sess := filepath.Join("sessions", "pin")
	if err := os.MkdirAll(filepath.Join(dst, sess), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{configFile, snapshotFile, walFile} {
		data, err := os.ReadFile(filepath.Join(src, sess, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, sess, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func readCompatSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	snap, err := readSnapshot(filepath.Join(compatV2Dir, "sessions", "pin"))
	if err != nil || snap == nil {
		t.Fatalf("pinned snapshot unreadable: %v", err)
	}
	return snap
}

// TestCompatPinnedOpsFingerprint: applying the pinned operation sequence
// to a fresh session lands on both pinned fingerprints — the state the
// v1 writer's session reached, under either definition.
func TestCompatPinnedOpsFingerprint(t *testing.T) {
	sess, err := NewSession("pin", compatConfig)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range compatOps {
		op.Seq = uint64(i + 1)
		if err := sess.Apply(op); err != nil {
			t.Fatalf("op %d: %v", op.Seq, err)
		}
	}
	if got, want := fingerprintV1(sess), compatFingerprint(t, compatV1Dir); got != want {
		t.Fatalf("serve-session-v1 fingerprint %s, the v1 writer computed %s", got, want)
	}
	if got, want := fmt.Sprintf("%016x", sess.Fingerprint()), compatFingerprint(t, compatV2Dir); got != want {
		t.Fatalf("fingerprint %s, pinned %s", got, want)
	}
}

// TestCompatPinnedDataDirLoads: both pinned data directories still open
// — snapshot restore (self-check included) plus WAL-suffix replay for
// v2, the version-1 snapshot logged and ignored for v1, and bare WAL
// replay with the snapshot removed for both — and recover the pinned
// state. A drain then leaves a version-2 snapshot behind either way.
func TestCompatPinnedDataDirLoads(t *testing.T) {
	wantV1, wantV2 := compatFingerprint(t, compatV1Dir), compatFingerprint(t, compatV2Dir)
	for _, c := range []struct {
		src          string
		dropSnapshot bool
		wantIgnored  bool
	}{
		{compatV1Dir, false, true},
		{compatV1Dir, true, false},
		{compatV2Dir, false, false},
		{compatV2Dir, true, false},
	} {
		name := fmt.Sprintf("%s dropSnapshot=%v", c.src, c.dropSnapshot)
		dir := copyCompatDir(t, c.src)
		snapPath := filepath.Join(dir, "sessions", "pin", snapshotFile)
		if c.dropSnapshot {
			if err := os.Remove(snapPath); err != nil {
				t.Fatal(err)
			}
		}
		var logged []string
		store, err := OpenStore(dir, StoreOptions{Logf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ignored := strings.Contains(strings.Join(logged, "\n"), "ignoring version-1 snapshot"); ignored != c.wantIgnored {
			t.Fatalf("%s: version-1 snapshot ignored = %v, log:\n%s", name, ignored, strings.Join(logged, "\n"))
		}
		info, err := store.Info("pin")
		if err != nil {
			t.Fatal(err)
		}
		if info.Fingerprint != wantV2 || info.WALSeq != uint64(len(compatOps)) {
			t.Fatalf("%s: recovered fingerprint %s at seq %d, pinned %s at seq %d",
				name, info.Fingerprint, info.WALSeq, wantV2, len(compatOps))
		}
		if info.Pending != 2 || info.Running != 2 || info.Clock != 130 {
			t.Fatalf("%s: recovered %+v", name, info)
		}
		h, err := store.get("pin")
		if err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
		got := fingerprintV1(h.sess)
		h.mu.Unlock()
		if got != wantV1 {
			t.Fatalf("%s: recovered state hashes to %s under serve-session-v1, pinned %s", name, got, wantV1)
		}
		if err := store.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		snap, err := readSnapshot(filepath.Dir(snapPath))
		if err != nil || snap == nil || snap.Version != snapshotVersion || snap.WALSeq != uint64(len(compatOps)) || snap.Fingerprint != wantV2 {
			t.Fatalf("%s: snapshot after drain: %+v, %v", name, snap, err)
		}
	}
}

// TestCompatSnapshotV2BytesPinned: restoring the pinned version-2
// snapshot and streaming it again yields the same bytes — neither the
// format nor the fingerprint definition moved.
func TestCompatSnapshotV2BytesPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(compatV2Dir, "sessions", "pin", snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snap := readCompatSnapshot(t)
	sess, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := streamSnapshot(t, sess, snap.WALSeq); !bytes.Equal(got, want) {
		t.Fatalf("re-captured snapshot differs from the pinned one:\n%s", got)
	}
}

// TestCompatRestoreRefusals: the two restore safety checks survive —
// running jobs that do not fit the machine, and a snapshot that does
// not reproduce its own fingerprint.
func TestCompatRestoreRefusals(t *testing.T) {
	snap := readCompatSnapshot(t)
	snap.Running[0].Spec.Nodes = snap.Config.Nodes
	if _, err := RestoreSession(snap); err == nil || !strings.Contains(err.Error(), "oversubscribe the machine") {
		t.Fatalf("oversubscribed running set: %v", err)
	}

	snap = readCompatSnapshot(t)
	snap.Running[0].End++
	if _, err := RestoreSession(snap); err == nil || !strings.Contains(err.Error(), "does not round-trip") {
		t.Fatalf("edited completion time: %v", err)
	}
}

// TestCompatPlanDataDirUpgrades: a plan-order data directory written
// before snapshots carried plan ranks still opens. Its config's retired
// allow_unstable field is ignored; its snapshot, which has neither ranks
// nor a plan length, passes the restore self-check as a session that has
// not planned yet — content-equivalent to the one that wrote it, not
// identical — and the suffix replays. Once: the next snapshot carries
// the plan, and from it recovery is exact.
func TestCompatPlanDataDirUpgrades(t *testing.T) {
	snap, err := readSnapshot(filepath.Join(compatPlanDir, "sessions", "pin"))
	if err != nil || snap == nil {
		t.Fatalf("pinned snapshot unreadable: %v", err)
	}
	sess, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, sj := range snap.Pending {
		ids = append(ids, fmt.Sprintf("%d#0", sj.ID))
	}
	if got := pendingWalk(sess); sess.sch.PlanSize() != 0 || !slices.Equal(got, ids) || len(ids) == 0 {
		t.Fatalf("old snapshot restored to plan %d, pending %v; want no plan and %v", sess.sch.PlanSize(), got, ids)
	}

	dir := copyCompatDir(t, compatPlanDir)
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Info("pin")
	if err != nil {
		t.Fatal(err)
	}
	if info.WALSeq != 10 || info.Config.Order != "SMART-FFIA" {
		t.Fatalf("recovered %+v", info)
	}
	if err := store.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	sessDir := filepath.Join(dir, "sessions", "pin")
	data, err := os.ReadFile(filepath.Join(sessDir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if next, err := decodeSnapshot(data); err != nil || next.PlanSize == 0 || len(next.Pending) == 0 ||
		next.Pending[0].Rank == 0 || next.Fingerprint != info.Fingerprint || bytes.Contains(data, []byte("allow_unstable")) {
		t.Fatalf("snapshot after drain carries no plan, or not the drained state (%v):\n%s", err, data)
	}

	store, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again, err := store.Info("pin"); err != nil || again.Fingerprint != info.Fingerprint {
		t.Fatalf("reopened from the plan snapshot: %+v, %v; want fingerprint %s", again, err, info.Fingerprint)
	}
	if err := store.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
