package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planSnapshot returns the snapshot of a SMART-FFIA session in the middle
// of a plan: four ranked plan jobs wait, then one arrival since.
func planSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	sess, err := NewSession("plan", Config{Nodes: 16, Order: "SMART-FFIA"})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess, []JobSpec{
		{Nodes: 16, Estimate: 100}, {Nodes: 16, Estimate: 50}, {Nodes: 12, Estimate: 80},
		{Nodes: 10, Estimate: 70}, {Nodes: 8, Estimate: 60},
	})
	mustSubmit(t, sess, []JobSpec{{Nodes: 16, Estimate: 30}})
	snap := sess.Snapshot(2)
	if n := len(snap.Pending); n != 5 || snap.Pending[n-2].Rank == 0 || snap.Pending[n-1].Rank != 0 {
		t.Fatalf("not a mid-plan snapshot: plan %d, pending %+v", snap.PlanSize, snap.Pending)
	}
	return snap
}

// badPlans are edits of planSnapshot that break a rule of the pending
// section restore checks, each with the refusal it must meet.
var badPlans = []struct {
	name, want string
	edit       func(*Snapshot)
}{
	{"rank after an arrival", "not in plan order", func(s *Snapshot) {
		p := s.Pending
		s.Pending = append([]snapJob{p[len(p)-1]}, p[:len(p)-1]...)
	}},
	{"repeated rank", "not in plan order", func(s *Snapshot) { s.Pending[1].Rank = s.Pending[0].Rank }},
	{"decreasing ranks", "not in plan order", func(s *Snapshot) { s.Pending[0], s.Pending[1] = s.Pending[1], s.Pending[0] }},
	{"rank beyond plan", "outside a plan", func(s *Snapshot) { s.Pending[3].Rank = s.PlanSize + 1 }},
	{"negative plan", "outside a plan", func(s *Snapshot) { s.PlanSize = -1 }},
	{"ranks under FCFS", "outside a plan of 0", func(s *Snapshot) { s.Config.Order, s.PlanSize = "FCFS", 0 }},
	{"plan under G&G", "keeps no plan", func(s *Snapshot) { s.Config.Order, s.Config.Start = "Garey&Graham", "List" }},
	{"arrivals out of id order", "not in arrival order", func(s *Snapshot) {
		s.Pending[3].Rank = 0
		s.Pending[3], s.Pending[4] = s.Pending[4], s.Pending[3]
	}},
}

// TestRestoreRefusesMalformedPlan: every plan shape restore cannot
// rebuild exactly is refused by name, before the fingerprint check.
func TestRestoreRefusesMalformedPlan(t *testing.T) {
	if _, err := RestoreSession(planSnapshot(t)); err != nil {
		t.Fatalf("well-formed plan snapshot: %v", err)
	}
	for _, c := range badPlans {
		snap := planSnapshot(t)
		c.edit(snap)
		if _, err := RestoreSession(snap); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore returned %v, want a refusal containing %q", c.name, err, c.want)
		}
	}
}

// FuzzReadSnapshot: no snapshot document, however mangled, panics the
// decoder or the restore; and whatever does restore is a fixed point of
// the streaming writer — written out again it restores to the same
// fingerprint. Almost every mutation dies at the restore's self-check,
// which is the point of having one; the seeds cover the round trip, a
// plan order's ranks, and the plan shapes restore refuses.
func FuzzReadSnapshot(f *testing.F) {
	for _, dir := range []string{compatV2Dir, compatV1Dir, compatPlanDir} {
		data, err := os.ReadFile(filepath.Join(dir, "sessions", "pin", snapshotFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add(streamSnapshot(f, buildSession(f), 3))
	seeds := []*Snapshot{planSnapshot(f)}
	for _, c := range badPlans {
		snap := planSnapshot(f)
		c.edit(snap)
		seeds = append(seeds, snap)
	}
	for _, snap := range seeds {
		data, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":2,"name":"x","config":{"nodes":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		sess, err := RestoreSession(snap)
		if err != nil {
			return
		}
		again, err := decodeSnapshot(streamSnapshot(t, sess, snap.WALSeq))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		restored, err := RestoreSession(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		if restored.Fingerprint() != sess.Fingerprint() {
			t.Fatalf("re-encoded snapshot restores to %016x, was %016x", restored.Fingerprint(), sess.Fingerprint())
		}
	})
}
