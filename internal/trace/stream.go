package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"jobsched/internal/job"
)

// Scanner reads an SWF stream incrementally: one job per Next call, in
// file order, under bounded memory. It is the streaming counterpart of
// ReadWith (which is implemented on top of it) and the trace-backed
// implementation of the simulator's arrival source (sim.Source).
//
// Ordering contract: the simulator consumes arrivals in non-decreasing
// submission order, and a stream cannot be sorted without buffering it
// whole, so Next rejects a record whose submission time is below the
// previous record's with an error naming the line. Records sharing a
// submission time are yielded in file order. Slice loading (ReadWith)
// stays permissive: it returns jobs in file order and lets the caller
// sort.
//
// Error reporting matches ReadWith: malformed records and malformed
// recognized header values yield an error carrying the 1-based line
// number. Errors are sticky — after a non-nil error every further Next
// returns the same error.
type Scanner struct {
	sc     *bufio.Scanner
	opt    ReadOptions
	header Header
	line   int
	// kept counts accepted records, the sequential-ID fallback for
	// records without a usable SWF job number.
	kept       int
	lastSubmit int64
	sawRecord  bool
	// ignoreOrder disables the non-decreasing-submit check (slice
	// loading via ReadWith, which can sort after the fact).
	ignoreOrder bool
	err         error
}

// NewScanner wraps an SWF stream for incremental reading.
func NewScanner(r io.Reader, opt ReadOptions) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Scanner{sc: sc, opt: opt}
}

// Header returns the header comments consumed so far. SWF headers precede
// the records, so after the first Next (or after the stream ends) the
// header is complete.
func (s *Scanner) Header() Header { return s.header }

// Next returns the next surviving job in file order, or (nil, nil) at the
// end of the stream. Filtered records (cancelled/degenerate/status, see
// ReadOptions) are skipped transparently.
func (s *Scanner) Next() (*job.Job, error) {
	if s.err != nil {
		return nil, s.err
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ";") {
			if err := parseHeaderLine(&s.header, text); err != nil {
				s.err = fmt.Errorf("trace: line %d: %w", s.line, err)
				return nil, s.err
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < swfFields {
			s.err = fmt.Errorf("trace: line %d: %d fields, want %d", s.line, len(fields), swfFields)
			return nil, s.err
		}
		j, err := parseRecord(fields, s.opt, s.kept)
		if err != nil {
			s.err = fmt.Errorf("trace: line %d: %w", s.line, err)
			return nil, s.err
		}
		if j == nil {
			continue // filtered record
		}
		if !s.ignoreOrder && s.sawRecord && j.Submit < s.lastSubmit {
			s.err = fmt.Errorf("trace: line %d: submit %d before previous %d: streaming needs submit-sorted input (load the whole file to reorder)",
				s.line, j.Submit, s.lastSubmit)
			return nil, s.err
		}
		s.sawRecord = true
		s.lastSubmit = j.Submit
		s.kept++
		return j, nil
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("trace: %w", err)
		return nil, s.err
	}
	return nil, nil
}

// Writer emits SWF records incrementally, the streaming counterpart of
// Write (which is implemented on top of it). The SWF job-number field is
// positional: record i is written with job number i+1, matching the
// 1-based convention of the Parallel Workloads Archive; Read carries that
// number back into job.ID.
type Writer struct {
	bw *bufio.Writer
	n  int
}

// NewWriter starts an SWF stream with the given header comments.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if h.Computer != "" {
		// bufio latches the first write error; the Flush below surfaces it.
		_, _ = fmt.Fprintf(bw, "; Computer: %s\n", h.Computer)
	}
	if h.MaxNodes > 0 {
		// bufio latches the first write error; the Flush below surfaces it.
		_, _ = fmt.Fprintf(bw, "; MaxNodes: %d\n", h.MaxNodes)
	}
	if h.Note != "" {
		// bufio latches the first write error; the Flush below surfaces it.
		_, _ = fmt.Fprintf(bw, "; Note: %s\n", h.Note)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// WriteJob appends one record. Wait time is written as -1 (unknown: the
// wait is an output of scheduling, not an input); resource fields we do
// not model are -1 per the SWF convention.
func (w *Writer) WriteJob(j *job.Job) error {
	w.n++
	// job_id submit wait runtime procs avg_cpu mem req_procs req_time
	// req_mem status user group exe queue partition prev think
	_, err := fmt.Fprintf(w.bw, "%d %d -1 %d %d -1 -1 %d %d -1 1 %s -1 -1 -1 -1 -1 -1\n",
		w.n, j.Submit, j.Runtime, j.Nodes, j.Nodes, j.Estimate, swfUser(j))
	return err
}

// Jobs returns the number of records written so far.
func (w *Writer) Jobs() int { return w.n }

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
