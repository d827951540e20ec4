package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSnapshot: no snapshot document, however mangled, panics the
// decoder or the restore; and whatever does restore is a fixed point of
// the streaming writer — written out again it restores to the same
// fingerprint. Almost every mutation dies at the restore's self-check,
// which is the point of having one; the seeds cover the round trip.
func FuzzReadSnapshot(f *testing.F) {
	for _, dir := range []string{compatV2Dir, compatV1Dir} {
		data, err := os.ReadFile(filepath.Join(dir, "sessions", "pin", snapshotFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add(streamSnapshot(f, buildSession(f), 3))
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
