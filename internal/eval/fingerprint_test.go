package eval

import (
	"path/filepath"
	"strings"
	"testing"

	"jobsched/internal/sim"
)

// fpOf hashes just the option block, the part of the journal stamp the
// resubmit-policy knobs must reach.
func fpOf(opt Options) uint64 {
	fp := NewFingerprint()
	fp.Options(opt)
	return fp.Sum()
}

// TestFingerprintCoversResubmitPolicy pins that every resubmit-policy
// knob (-retries/-backoff/-backoffcap and the backoff factor) changes
// the evaluation fingerprint: a journal recorded under one retry policy
// must not be resumable under another, because lost-job accounting —
// and through it the cell values — depends on all four fields.
func TestFingerprintCoversResubmitPolicy(t *testing.T) {
	baseline := Options{Failures: []sim.Failure{{At: 100, Nodes: 8, Duration: 50}}}
	baseline.Resubmit = sim.ResubmitPolicy{MaxResubmits: 2, BackoffBase: 30, BackoffFactor: 2, BackoffCap: 600}
	ref := fpOf(baseline)

	variants := map[string]sim.ResubmitPolicy{
		"MaxResubmits":  {MaxResubmits: 5, BackoffBase: 30, BackoffFactor: 2, BackoffCap: 600},
		"BackoffBase":   {MaxResubmits: 2, BackoffBase: 60, BackoffFactor: 2, BackoffCap: 600},
		"BackoffFactor": {MaxResubmits: 2, BackoffBase: 30, BackoffFactor: 3, BackoffCap: 600},
		"BackoffCap":    {MaxResubmits: 2, BackoffBase: 30, BackoffFactor: 2, BackoffCap: 1200},
	}
	for field, pol := range variants {
		opt := baseline
		opt.Resubmit = pol
		if fpOf(opt) == ref {
			t.Errorf("changing Resubmit.%s does not change the fingerprint: a -resume would silently mix cells from a different retry policy", field)
		}
	}
}

// TestFingerprintKeepsExactWalkJournals pins the option-block hash across
// the removal of the approximate conservative walk. The two golden values
// were computed before the removal, from the default options and from the
// options that selected the approximate walk: journals of the exact walk
// (every run without -full) must still resume, and journals of the
// approximate walk (every -full run) must be refused, since their
// Backfilling cells are not the exact policy's.
func TestFingerprintKeepsExactWalkJournals(t *testing.T) {
	const (
		exactWalk  = uint64(0x776648f05cefb14d)
		approxWalk = uint64(0xeb8bac21f1083764)
	)
	got := fpOf(Options{})
	if got != exactWalk {
		t.Errorf("default options hash to %#x, want %#x: journals recorded by the exact walk would no longer resume", got, exactWalk)
	}
	if got == approxWalk {
		t.Errorf("default options hash to the approximate walk's %#x: its journals would resume", approxWalk)
	}
}

// TestJournalResumeRefusesDifferentResubmitPolicy is the end-to-end
// regression: a journal stamped under one -retries/-backoff setting is
// refused on resume under another, with the fingerprint mismatch named.
func TestJournalResumeRefusesDifferentResubmitPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	optA := Options{}
	optA.Resubmit = sim.ResubmitPolicy{MaxResubmits: 2, BackoffBase: 30}
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Stamp(fpOf(optA)); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	optB := optA
	optB.Resubmit.MaxResubmits = 5
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	err = j2.Stamp(fpOf(optB))
	if err == nil {
		t.Fatal("journal accepted a resume with a different resubmit policy")
	}
	if !strings.Contains(err.Error(), "different evaluation") {
		t.Fatalf("mismatch error does not explain itself: %v", err)
	}

	// Same policy resumes cleanly.
	if err := j2.Stamp(fpOf(optA)); err != nil {
		t.Fatalf("same-policy resume refused: %v", err)
	}
}
