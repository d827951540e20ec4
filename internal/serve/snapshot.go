package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// snapshotFile is the snapshot's name inside a session directory.
const snapshotFile = "snapshot.json"

// snapJob is one job's durable state inside a snapshot.
type snapJob struct {
	ID     int64   `json:"id"`
	Spec   JobSpec `json:"spec"`
	Submit int64   `json:"submit"`
	Start  int64   `json:"start,omitempty"`
	End    int64   `json:"end,omitempty"`
	// Seq is the start order (running jobs only): it breaks completion
	// ties, so restoring it keeps event delivery byte-identical.
	Seq    int    `json:"seq,omitempty"`
	Rank   int    `json:"rank,omitempty"` // plan orders' pending jobs only
	Status string `json:"status,omitempty"`
}

// snapshotVersion is the format this code writes: compact JSON carrying
// a serve-session-v2 fingerprint. Version 1 (indented, whole-walk v1
// fingerprint) is still recognised on disk, and ignored: see loadSession.
const snapshotVersion = 2

// snapHeader is the scalar part of a snapshot; the streaming writer
// encodes it on its own, ahead of the job sections.
type snapHeader struct {
	Version  int        `json:"version"`
	Name     string     `json:"name"`
	Config   Config     `json:"config"`
	Clock    int64      `json:"clock"`
	NextID   int64      `json:"next_id"`
	StartSeq int        `json:"start_seq"`
	WALSeq   uint64     `json:"wal_seq"`
	Agg      Aggregates `json:"agg"`
	PlanSize int        `json:"plan_size,omitempty"` // plan orders only
}

// Snapshot is a session's full durable state at one WAL position:
// restoring it and replaying the WAL records after WALSeq reconstructs
// the session exactly, for every order policy. Pending jobs are stored
// in the order policy's order — a plan order's ranked plan jobs, then
// the arrivals since by id — and running jobs in start order.
type Snapshot struct {
	snapHeader
	Pending []snapJob `json:"pending"`
	Running []snapJob `json:"running"`
	Retired []snapJob `json:"retired"`
	// Fingerprint is the state fingerprint at capture time; restore
	// recomputes it and refuses a snapshot that does not round-trip, so
	// a corrupt or hand-edited snapshot cannot silently resurrect a
	// session into a state no client was ever acked.
	Fingerprint string `json:"fingerprint"`
}

// writeFileAtomic durably replaces dir/name with what write produces:
// write to a temp file, fsync it, rename over the target, fsync the
// directory. The content fsync before the rename is what makes the
// rename a commit point — a crash can leave the old file or the new one,
// never a torn mix (the kill-mid-write recovery test pins this).
func writeFileAtomic(dir, name string, write func(*bufio.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: writing %s: %w", name, err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		cerr := f.Close()
		_ = cerr // the write failure is the actionable error
		return fmt.Errorf("serve: writing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		_ = cerr // the sync failure is the actionable error
		return fmt.Errorf("serve: syncing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: closing %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("serve: publishing %s: %w", name, err)
	}
	// Durably record the rename itself: without the directory fsync a
	// crash can forget the new name while keeping the new inode.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("serve: syncing dir for %s: %w", name, err)
	}
	if err := d.Sync(); err != nil {
		cerr := d.Close()
		_ = cerr // the sync failure is the actionable error
		return fmt.Errorf("serve: syncing dir for %s: %w", name, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("serve: syncing dir for %s: %w", name, err)
	}
	return nil
}

// readSnapshot loads the session snapshot, or returns (nil, nil) when
// none has been written yet. A leftover temp file from a crash
// mid-write is ignored (and cleaned up) — the rename never happened, so
// the previous snapshot (or the bare WAL) is the durable truth.
func readSnapshot(dir string) (*Snapshot, error) {
	if err := os.Remove(filepath.Join(dir, snapshotFile+".tmp")); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot %s: %w", filepath.Join(dir, snapshotFile), err)
	}
	return snap, nil
}

// decodeSnapshot parses a snapshot document of either known version.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	if snap.Version != 1 && snap.Version != snapshotVersion {
		return nil, fmt.Errorf("unsupported version %d", snap.Version)
	}
	return &snap, nil
}
