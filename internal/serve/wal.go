// Package serve is jobschedd's service layer: it multiplexes many
// independent machine sessions, each a deterministic logical-time
// scheduler built from the sim/sched core, behind an HTTP/JSON API with
// admission control, bounded queues, and crash recovery.
//
// Durability model. Every session lives in its own directory holding a
// config file, a write-ahead log (WAL) of committed operations, and a
// periodic snapshot. An operation is applied to the in-memory session
// first, then appended to the WAL with an fsync, and only then
// acknowledged to the client — so the WAL records exactly the
// fully-applied operation sequence and replaying it (optionally on top
// of a snapshot) reconstructs byte-identical session state. A crash
// between apply and fsync loses only unacknowledged work; a failure
// mid-apply (panic, cancelled request) poisons the in-memory state and
// is healed by re-loading from disk, which by construction excludes the
// failed operation.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"jobsched/internal/durable"
)

// Operation names in the WAL.
const (
	opSubmit  = "submit"
	opAdvance = "advance"
)

// Record is one committed operation in a session's write-ahead log.
// Records are JSON lines with strictly consecutive sequence numbers
// starting at 1; the snapshot stores the sequence number of the last
// operation folded into it, so recovery replays only the suffix.
type Record struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// At is the session clock the operation committed at (submit) or the
	// advance target (advance).
	At   int64     `json:"at"`
	Jobs []JobSpec `json:"jobs,omitempty"`
}

// WAL is an append-only fsynced operation log on a durable.Log. It is
// not safe for concurrent use; the per-session worker is its single
// writer.
type WAL struct {
	log     *durable.Log
	nextSeq uint64
	buf     bytes.Buffer
}

// OpenWAL opens (creating if absent) the log at path and returns the
// committed records in order. A record only counts as committed if its
// trailing newline made it to disk: acks happen after the
// newline-inclusive buffer is fsynced, so an unterminated final line —
// even one that unmarshals cleanly, a write torn exactly at the closing
// brace — was never acknowledged, and durable.OpenLog cuts it off. A
// final line that ends in a newline but does not parse (a zero-filled
// block) is cut the same way. A torn or out-of-sequence record anywhere
// else is corruption and refused, because silently skipping committed
// operations would replay to a different state than the one clients
// were acked.
func OpenWAL(path string) (*WAL, []Record, error) {
	log, lines, err := durable.OpenLog(path, true)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: wal: %w", err)
	}
	recs := make([]Record, 0, len(lines))
	for i, line := range lines {
		var rec Record
		if uerr := json.Unmarshal(line, &rec); uerr != nil || rec.Op == "" {
			if i == len(lines)-1 {
				err = log.Cut(i) // torn tail: crash mid-append, drop it
				if err != nil {
					err = fmt.Errorf("serve: wal: cutting torn tail: %w", err)
				}
				break
			}
			err = fmt.Errorf("serve: wal %s: corrupt record at line %d", path, i+1)
			break
		}
		if rec.Seq != uint64(len(recs))+1 {
			err = fmt.Errorf("serve: wal %s: line %d has seq %d, want %d (log is missing committed operations)",
				path, i+1, rec.Seq, len(recs)+1)
			break
		}
		recs = append(recs, rec)
	}
	if err != nil {
		_ = log.Close() // the parse or cut failure is the actionable error
		return nil, nil, err
	}
	return &WAL{log: log, nextSeq: uint64(len(recs)) + 1}, recs, nil
}

// LastSeq returns the sequence number of the last committed record
// (0 when the log is empty).
func (w *WAL) LastSeq() uint64 { return w.nextSeq - 1 }

// Append assigns consecutive sequence numbers to recs, writes them as
// one buffer, and fsyncs — a whole client batch costs a single write
// and a single fsync (group commit). On any error the log must be
// considered of unknown durability: the caller reloads from disk.
func (w *WAL) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.buf.Reset()
	for i := range recs {
		recs[i].Seq = w.nextSeq + uint64(i)
		line, err := json.Marshal(recs[i])
		if err != nil {
			return fmt.Errorf("serve: wal: %w", err)
		}
		w.buf.Write(line)
		w.buf.WriteByte('\n')
	}
	if err := w.log.Append(w.buf.Bytes()); err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	w.nextSeq += uint64(len(recs))
	return nil
}

// Close releases the underlying file. Appended records are already
// synced; Close never loses data.
func (w *WAL) Close() error { return w.log.Close() }
