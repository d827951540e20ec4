package eval

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"jobsched/internal/durable"
	"jobsched/internal/sched"
)

// Journal is the crash-safe progress log of a grid run: one JSON line per
// completed cell, appended and fsynced before the cell is considered
// done. Reopening the journal with resume restores those cells without
// re-simulating them — because every cell is a pure function of the
// workload, seed, and options, the restored values are exactly what a
// fresh run would compute, and the resumed tables render byte-identically
// to an uninterrupted run.
//
// The journal is a durable.Log: a crash mid-write leaves at most one
// torn final line, which resume cuts off — that cell simply re-runs.
// Dropping any malformed line is safe for the same reason: the journal
// is a cache, never the only copy.
type Journal struct {
	mu   sync.Mutex
	log  *durable.Log
	done map[string]Cell
	// stamp is the evaluation fingerprint the journal is bound to (see
	// Fingerprint); stamped reports whether one was recorded. Resuming
	// under a different fingerprint is refused by Stamp.
	stamp   uint64
	stamped bool
}

// journalRecord is the serialized form of one completed cell. The float
// fields round-trip exactly through encoding/json (shortest
// representation that parses back to the same bits), which is what makes
// resumed tables byte-identical.
type journalRecord struct {
	Grid      string  `json:"grid"`
	Case      string  `json:"case"`
	Order     string  `json:"order"`
	Start     string  `json:"start"`
	Value     float64 `json:"value"`
	SchedNS   int64   `json:"sched_ns,omitempty"`
	MaxQueue  int     `json:"max_queue,omitempty"`
	Makespan  int64   `json:"makespan,omitempty"`
	Util      float64 `json:"util,omitempty"`
	Aborted   int     `json:"aborted,omitempty"`
	Resubmits int     `json:"resubmits,omitempty"`
	Lost      int     `json:"lost,omitempty"`
}

// stampRecord is the dedicated journal line binding the file to an
// evaluation fingerprint. It is serialized as hex so the full uint64
// range survives JSON number parsing.
type stampRecord struct {
	Fingerprint string `json:"journal_fingerprint"`
}

func journalKey(grid string, c Case, o sched.OrderName, s sched.StartName) string {
	// \x00 separators keep concatenated names unambiguous.
	return grid + "\x00" + c.String() + "\x00" + string(o) + "\x00" + string(s)
}

func (r journalRecord) key() string {
	return r.Grid + "\x00" + r.Case + "\x00" + r.Order + "\x00" + r.Start
}

func (r journalRecord) cell() Cell {
	return Cell{
		Order:         sched.OrderName(r.Order),
		Start:         sched.StartName(r.Start),
		Value:         r.Value,
		SchedulerTime: time.Duration(r.SchedNS),
		MaxQueue:      r.MaxQueue,
		Makespan:      r.Makespan,
		Utilization:   r.Util,
		Aborted:       r.Aborted,
		Resubmits:     r.Resubmits,
		Lost:          r.Lost,
	}
}

// parseJournal decodes a journal's lines into cell records and the
// stamp, dropping torn or malformed lines (the cells simply re-run).
// Conflicting stamp lines in one file are an error: the file mixes two
// evaluations and resuming from it would be wrong either way.
func parseJournal(lines [][]byte) (recs []journalRecord, stamp uint64, stamped bool, err error) {
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var st stampRecord
		if json.Unmarshal(line, &st) == nil && st.Fingerprint != "" {
			fp, perr := strconv.ParseUint(st.Fingerprint, 16, 64)
			if perr != nil {
				continue // torn stamp line: treat as absent
			}
			if stamped && fp != stamp {
				return nil, 0, false, fmt.Errorf("eval: journal carries conflicting fingerprints %016x and %016x", stamp, fp)
			}
			stamp, stamped = fp, true
			continue
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil || rec.Order == "" {
			continue // torn tail (or corruption): the cell re-runs
		}
		recs = append(recs, rec)
	}
	return recs, stamp, stamped, nil
}

// OpenJournal opens (creating if needed) the journal at path. With resume
// true, existing completed cells are loaded and later served by Lookup;
// with resume false any previous content is truncated and the run starts
// from scratch.
func OpenJournal(path string, resume bool) (*Journal, error) {
	log, lines, err := durable.OpenLog(path, resume)
	if err != nil {
		return nil, fmt.Errorf("eval: journal: %w", err)
	}
	recs, stamp, stamped, err := parseJournal(lines)
	if err != nil {
		_ = log.Close() // the parse failure is the actionable error
		return nil, err
	}
	j := &Journal{log: log, done: make(map[string]Cell), stamp: stamp, stamped: stamped}
	for _, rec := range recs {
		j.done[rec.key()] = rec.cell()
	}
	return j, nil
}

// Stamp binds the journal to an evaluation fingerprint (see
// Fingerprint). On a fresh journal the stamp is appended and fsynced;
// on a resumed journal that already carries a stamp, a mismatch is an
// error — the journal was recorded for a different evaluation and its
// cells must not be mixed into this one. A resumed legacy journal
// without a stamp is adopted (stamped now) for compatibility.
func (j *Journal) Stamp(fp uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stamped {
		if j.stamp != fp {
			return fmt.Errorf("eval: journal was recorded for a different evaluation (fingerprint %016x, this run is %016x): use a fresh -journal file or re-run without -resume", j.stamp, fp)
		}
		return nil
	}
	line, err := json.Marshal(stampRecord{Fingerprint: fmt.Sprintf("%016x", fp)})
	if err != nil {
		return err
	}
	if err := j.log.Append(append(line, '\n')); err != nil {
		return err
	}
	j.stamp, j.stamped = fp, true
	return nil
}

// Fingerprint returns the journal's stamp, if any.
func (j *Journal) Fingerprint() (uint64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stamp, j.stamped
}

// MergeJournals unions several shard journals into dst (replacing it).
// Every stamped source must carry the same fingerprint — shards of one
// evaluation by construction — and dst inherits it. Duplicate cells
// (e.g. from overlapping resumes) keep their first occurrence; the
// cells are written sorted by grid, case, order and start. The
// merged journal is a normal journal: opening it with resume and
// re-running the evaluation restores every cell without simulating and
// renders byte-identically to a single-process run.
//
// The merge is atomic (durable.ReplaceFile): a failed or interrupted
// merge never destroys an existing journal at dst.
func MergeJournals(dst string, srcs ...string) error {
	if len(srcs) == 0 {
		return fmt.Errorf("eval: merge needs at least one source journal")
	}
	var (
		stamp   uint64
		stamped bool
		order   []journalRecord
		seen    = make(map[string]bool)
	)
	for _, src := range srcs {
		data, err := os.ReadFile(src)
		if err != nil {
			return fmt.Errorf("eval: merge: %w", err)
		}
		recs, fp, ok, err := parseJournal(bytes.Split(data, []byte("\n")))
		if err != nil {
			return fmt.Errorf("eval: merge %s: %w", src, err)
		}
		if ok {
			if stamped && fp != stamp {
				return fmt.Errorf("eval: merge: %s has fingerprint %016x, earlier sources %016x: the journals belong to different evaluations", src, fp, stamp)
			}
			stamp, stamped = fp, true
		}
		for _, rec := range recs {
			if seen[rec.key()] {
				continue
			}
			seen[rec.key()] = true
			order = append(order, rec)
		}
	}
	// Workers journal cells in the order they finish, so first-seen order
	// varies from run to run; sorted by key, merging the same cells gives
	// the same bytes whatever order the lines and sources came in.
	slices.SortFunc(order, func(a, b journalRecord) int { return strings.Compare(a.key(), b.key()) })
	// One durable.ReplaceFile: the stamp, then the records in key order,
	// each line exactly as Record would have written it.
	return durable.ReplaceFile(dst, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		if stamped {
			if err := enc.Encode(stampRecord{Fingerprint: fmt.Sprintf("%016x", stamp)}); err != nil {
				return err
			}
		}
		for _, rec := range order {
			if rec.Case != Unweighted.String() && rec.Case != Weighted.String() {
				return fmt.Errorf("eval: merge: unknown case %q", rec.Case)
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// Lookup returns the journaled result of a cell, if present.
func (j *Journal) Lookup(grid string, c Case, o sched.OrderName, s sched.StartName) (Cell, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cell, ok := j.done[journalKey(grid, c, o, s)]
	return cell, ok
}

// Record appends a completed cell and fsyncs, so the entry survives a
// crash immediately after. Safe for concurrent use by a Parallel grid.
//
// A cell whose Err is set is refused: resume trusts journaled cells and
// never re-runs them, so journaling a failure would make a transient
// error permanent.
func (j *Journal) Record(grid string, c Case, cell Cell) error {
	if cell.Err != "" {
		return fmt.Errorf("eval: journal: cell %s/%s failed, only successful cells are journaled: %s", cell.Order, cell.Start, cell.Err)
	}
	line, err := json.Marshal(journalRecord{
		Grid:      grid,
		Case:      c.String(),
		Order:     string(cell.Order),
		Start:     string(cell.Start),
		Value:     cell.Value,
		SchedNS:   int64(cell.SchedulerTime),
		MaxQueue:  cell.MaxQueue,
		Makespan:  cell.Makespan,
		Util:      cell.Utilization,
		Aborted:   cell.Aborted,
		Resubmits: cell.Resubmits,
		Lost:      cell.Lost,
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(append(line, '\n')); err != nil {
		return err
	}
	j.done[journalKey(grid, c, cell.Order, cell.Start)] = cell
	return nil
}

// Completed returns the number of cells currently in the journal.
func (j *Journal) Completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close releases the underlying file. Recorded entries are already
// synced; Close never loses data.
func (j *Journal) Close() error { return j.log.Close() }
