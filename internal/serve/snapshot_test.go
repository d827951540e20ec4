package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamSnapshot returns the snapshot document the store would write
// for sess at WAL position walSeq.
func streamSnapshot(t testing.TB, sess *Session, walSeq uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := sess.writeSnapshot(w, walSeq); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// publishSnapshot writes sess's snapshot into dir the way the store does.
func publishSnapshot(t testing.TB, dir string, sess *Session, walSeq uint64) {
	t.Helper()
	err := writeFileAtomic(dir, snapshotFile, func(w *bufio.Writer) error {
		return sess.writeSnapshot(w, walSeq)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// buildSession makes a session with a mix of pending, running, retired,
// expired, and shed jobs — every state class a snapshot must carry.
func buildSession(t testing.TB) *Session {
	t.Helper()
	sess, err := NewSession("snap", Config{Nodes: 16, MaxPending: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess, []JobSpec{
		{Name: "a", User: "u1", Nodes: 8, Estimate: 100},
		{Name: "b", User: "u1", Nodes: 8, Estimate: 200, Runtime: 150},
		{Name: "c", User: "u2", Nodes: 16, Estimate: 300},             // waits for a+b
		{Name: "d", User: "u2", Nodes: 1, Estimate: 50, Deadline: 80}, // expires waiting
	})
	if err := sess.Advance(120); err != nil { // a done, d expired at 81
		t.Fatal(err)
	}
	// Overflow the bounded queue: 4 pending max, c is pending plus these.
	mustSubmit(t, sess, []JobSpec{
		{Name: "e", Nodes: 1, Estimate: 10}, {Name: "f", Nodes: 1, Estimate: 10},
		{Name: "g", Nodes: 1, Estimate: 10}, {Name: "h", Nodes: 1, Estimate: 10},
		{Name: "shed-me", Nodes: 1, Estimate: 10},
	})
	return sess
}

func mustSubmit(t testing.TB, sess *Session, specs []JobSpec) []SubmitResult {
	t.Helper()
	rs, err := sess.Submit(specs)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestSnapshotRoundTrip: capture → write → read → restore reproduces
// the exact fingerprint, and the restored session keeps making the same
// decisions as the original.
func TestSnapshotRoundTrip(t *testing.T) {
	sess := buildSession(t)
	dir := t.TempDir()
	want := sess.Fingerprint()
	publishSnapshot(t, dir, sess, 42)

	got, err := readSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("snapshot missing after write")
	}
	if got.WALSeq != 42 {
		t.Fatalf("WALSeq = %d, want 42", got.WALSeq)
	}
	restored, err := RestoreSession(got)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Fingerprint() != want {
		t.Fatalf("restored fingerprint %016x != original %016x", restored.Fingerprint(), want)
	}

	// The futures must agree too, not just the instantaneous state.
	if err := sess.Advance(5000); err != nil {
		t.Fatal(err)
	}
	if err := restored.Advance(5000); err != nil {
		t.Fatal(err)
	}
	if sess.Fingerprint() != restored.Fingerprint() {
		t.Fatal("original and restored sessions diverged after further advancing")
	}
	if sess.Agg() != restored.Agg() {
		t.Fatalf("aggregates diverged: %+v vs %+v", sess.Agg(), restored.Agg())
	}
}

// TestSnapshotIgnoresTornTemp: a crash mid-write leaves snapshot.json.tmp;
// recovery must use the last published snapshot and clean the temp up.
func TestSnapshotIgnoresTornTemp(t *testing.T) {
	sess := buildSession(t)
	dir := t.TempDir()
	publishSnapshot(t, dir, sess, 7)
	torn := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.WriteFile(torn, []byte(`{"version":1,"name":"snap","clo`), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := readSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.WALSeq != 7 {
		t.Fatalf("published snapshot not used: %+v", snap)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn temp file not cleaned up")
	}

	// With no published snapshot at all, a torn temp means "no snapshot".
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, snapshotFile+".tmp"), []byte("gar"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = readSnapshot(empty)
	if err != nil || snap != nil {
		t.Fatalf("torn temp without published snapshot: snap=%v err=%v", snap, err)
	}
}

// TestSnapshotStreamMatchesMarshal: the streaming writer and the
// materialised Snapshot are two encodings of one document — the bytes
// the store writes are json.Marshal of what Session.Snapshot returns.
func TestSnapshotStreamMatchesMarshal(t *testing.T) {
	empty, err := NewSession("empty", Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{buildSession(t), empty} {
		want, err := json.Marshal(sess.Snapshot(9))
		if err != nil {
			t.Fatal(err)
		}
		if got := streamSnapshot(t, sess, 9); !bytes.Equal(got, want) {
			t.Fatalf("streamed snapshot\n%s\ndiffers from the marshalled one\n%s", got, want)
		}
	}
}

// TestRestoreRefusesTamperedSnapshot: the self-check fingerprint catches
// a snapshot whose content was altered after capture, and the structural
// checks catch the reorderings a sum of digests cannot see.
func TestRestoreRefusesTamperedSnapshot(t *testing.T) {
	sess := buildSession(t)
	mustSubmit(t, sess, []JobSpec{{Name: "w1", Nodes: 16, Estimate: 10}, {Name: "w2", Nodes: 16, Estimate: 10}})
	if p, r := sess.Counts(); p < 2 || r < 2 || len(sess.retired) < 2 {
		t.Fatalf("fixture too small to swap entries: %d pending, %d running, %d retired", p, r, len(sess.retired))
	}
	swap := func(js []snapJob) { js[0], js[1] = js[1], js[0] }
	for _, c := range []struct {
		name   string
		tamper func(*Snapshot)
		want   string
	}{
		{"counter edited", func(s *Snapshot) { s.Agg.Completed++ }, "does not round-trip"},
		{"job field edited", func(s *Snapshot) { s.Retired[0].Spec.User += "x" }, "does not round-trip"},
		{"two pending entries swapped", func(s *Snapshot) { swap(s.Pending) }, "not in arrival order"},
		{"two running entries swapped", func(s *Snapshot) { swap(s.Running) }, "not in start order"},
		{"two running seqs swapped", func(s *Snapshot) { s.Running[0].Seq, s.Running[1].Seq = s.Running[1].Seq, s.Running[0].Seq }, "not in start order"},
		{"two retired entries swapped", func(s *Snapshot) { swap(s.Retired) }, "does not round-trip"},
		{"job listed twice", func(s *Snapshot) { s.Retired[0].ID = s.Pending[0].ID }, "appears twice"},
		{"job wider than the machine", func(s *Snapshot) { s.Pending[0].Spec.Nodes = s.Config.Nodes + 1 }, "machine has"},
	} {
		snap := sess.Snapshot(1)
		if _, err := RestoreSession(snap); err != nil {
			t.Fatalf("untampered snapshot refused: %v", err)
		}
		c.tamper(snap)
		if _, err := RestoreSession(snap); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
