package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The files under testdata/compat-v1 — a session directory (config,
// snapshot at WAL seq 6, nine-record WAL) and the fingerprint the
// session ended at — were written by the code at commit 329e23d, the
// last one whose Session owned its own completion heap and pass loop,
// by applying compatOps below through Session + WAL and snapshotting
// after the sixth record. They pin the on-disk formats and the
// serve-session-v1 fingerprint across the move onto sim.Stepper: never
// regenerate them from current code.
const compatDir = "testdata/compat-v1"

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

func compatFingerprint(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(compatDir, "fingerprint.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// copyCompatDir copies the pinned data directory somewhere writable:
// opening a store appends to the WAL and rewrites the snapshot.
func copyCompatDir(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	sess := filepath.Join("sessions", "pin")
	if err := os.MkdirAll(filepath.Join(dst, sess), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{configFile, snapshotFile, walFile} {
		data, err := os.ReadFile(filepath.Join(compatDir, sess, name))
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
	snap, err := readSnapshot(filepath.Join(copyCompatDir(t), "sessions", "pin"))
	if err != nil || snap == nil {
		t.Fatalf("pinned snapshot unreadable: %v", err)
	}
	return snap
}

// TestCompatPinnedOpsFingerprint: applying the pinned operation sequence
// to a fresh session lands on the fingerprint the parent commit's
// session computed.
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
	if got, want := fmt.Sprintf("%016x", sess.Fingerprint()), compatFingerprint(t); got != want {
		t.Fatalf("fingerprint %s, the parent commit computed %s", got, want)
	}
}

// TestCompatPinnedDataDirLoads: a data directory written before the
// refactor still opens — snapshot restore (self-check included) plus
// WAL-suffix replay, and bare WAL replay with the snapshot removed —
// and recovers the pinned fingerprint.
func TestCompatPinnedDataDirLoads(t *testing.T) {
	want := compatFingerprint(t)
	for _, dropSnapshot := range []bool{false, true} {
		dir := copyCompatDir(t)
		if dropSnapshot {
			if err := os.Remove(filepath.Join(dir, "sessions", "pin", snapshotFile)); err != nil {
				t.Fatal(err)
			}
		}
		store, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("dropSnapshot=%v: %v", dropSnapshot, err)
		}
		info, err := store.Info("pin")
		if err != nil {
			t.Fatal(err)
		}
		if info.Fingerprint != want || info.WALSeq != uint64(len(compatOps)) {
			t.Fatalf("dropSnapshot=%v: recovered fingerprint %s at seq %d, pinned %s at seq %d",
				dropSnapshot, info.Fingerprint, info.WALSeq, want, len(compatOps))
		}
		if info.Pending != 2 || info.Running != 2 || info.Clock != 130 {
			t.Fatalf("dropSnapshot=%v: recovered %+v", dropSnapshot, info)
		}
		if err := store.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompatSnapshotBytesUnchanged: restoring the pinned snapshot and
// capturing it again yields the same bytes — the snapshot v1 format did
// not move.
func TestCompatSnapshotBytesUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(compatDir, "sessions", "pin", snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snap := readCompatSnapshot(t)
	sess, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(sess.Snapshot(snap.WALSeq), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("re-captured snapshot differs from the pinned one:\n%s", got)
	}
}

// TestCompatRestoreRefusals: the two restore safety checks survive the
// refactor — running jobs that do not fit the machine, and a snapshot
// that does not reproduce its own fingerprint.
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
