package eval

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jobsched/internal/faults"
	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/workload"
)

func robustnessJobs(t *testing.T, n int, seed int64) []*job.Job {
	t.Helper()
	cfg := workload.DefaultRandomizedConfig()
	cfg.Jobs = n
	cfg.Seed = seed
	return workload.Randomized(cfg)
}

// countingHooks counts how many cells were actually simulated: the Hooks
// callback fires once per constructed cell, and journaled cells never
// reach construction.
func countingHooks(n *atomic.Int64) func(sched.OrderName, sched.StartName) telemetry.Hooks {
	return func(sched.OrderName, sched.StartName) telemetry.Hooks {
		n.Add(1)
		return telemetry.Hooks{}
	}
}

func renderGrid(t *testing.T, g *Grid) string {
	t.Helper()
	var sb strings.Builder
	if err := g.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestJournalResumeByteIdentical: truncating the journal mid-grid (with a
// torn final line, as a crash would leave) and resuming must re-simulate
// only the missing cells and render byte-identically to the uninterrupted
// run.
func TestJournalResumeByteIdentical(t *testing.T) {
	jobs := robustnessJobs(t, 200, 123)
	m := sim.Machine{Nodes: 256}
	path := filepath.Join(t.TempDir(), "cells.jsonl")

	want := func() string {
		g, err := Run("resume", m, jobs, Unweighted, Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		return renderGrid(t, g)
	}()

	// Full journaled run.
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run("resume", m, jobs, Unweighted, Options{Validate: true, Journal: j}); err != nil {
		t.Fatal(err)
	}
	total := j.Completed()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if total != 13 { // 4 orders × 3 starts + Garey&Graham/List
		t.Fatalf("journal holds %d cells, want 13", total)
	}

	// Simulate a crash: keep the first 3 complete lines plus a torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	const keep = 3
	truncated := strings.Join(lines[:keep], "") + `{"grid":"resume","case":"Unw`
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Completed() != keep {
		t.Fatalf("resume loaded %d cells, want %d (torn tail must be dropped)", j2.Completed(), keep)
	}
	var simulated atomic.Int64
	g, err := Run("resume", m, jobs, Unweighted, Options{
		Validate: true, Journal: j2, Hooks: countingHooks(&simulated),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := simulated.Load(); got != int64(total-keep) {
		t.Errorf("resume simulated %d cells, want %d (journaled cells must be skipped)", got, total-keep)
	}
	if got := renderGrid(t, g); got != want {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestJournalInterruptMidGrid: a user interrupt fired mid-grid must abort
// with sim.ErrInterrupted; resuming from the journal completes the grid
// byte-identically without re-simulating the finished cells.
func TestJournalInterruptMidGrid(t *testing.T) {
	jobs := robustnessJobs(t, 200, 124)
	m := sim.Machine{Nodes: 256}
	path := filepath.Join(t.TempDir(), "cells.jsonl")

	want := func() string {
		g, err := Run("interrupt", m, jobs, Unweighted, Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		return renderGrid(t, g)
	}()

	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// The interrupt trips once three cells have been journaled — i.e.
	// somewhere inside the fourth cell's simulation (serial run).
	_, err = Run("interrupt", m, jobs, Unweighted, Options{
		Validate: true,
		Journal:  j,
		Interrupt: func() bool {
			return j.Completed() >= 3
		},
	})
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want sim.ErrInterrupted", err)
	}
	done := j.Completed()
	if done < 3 || done >= 13 {
		t.Fatalf("interrupted run journaled %d cells, want a strict mid-grid count", done)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var simulated atomic.Int64
	g, err := Run("interrupt", m, jobs, Unweighted, Options{
		Validate: true, Journal: j2, Hooks: countingHooks(&simulated),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := simulated.Load(); got != int64(13-done) {
		t.Errorf("resume simulated %d cells, want %d", got, 13-done)
	}
	if got := renderGrid(t, g); got != want {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestKeepGoingRecoversCellPanic: a panicking cell must not take the grid
// down when KeepGoing is set — its error (with stack) lands in Cell.Err
// and every other cell completes. Without KeepGoing the panic surfaces as
// the run error.
func TestKeepGoingRecoversCellPanic(t *testing.T) {
	jobs := robustnessJobs(t, 100, 125)
	m := sim.Machine{Nodes: 256}
	boom := func(o sched.OrderName, s sched.StartName) telemetry.Hooks {
		if o == sched.OrderPSRS && s == sched.StartList {
			panic("boom: injected cell failure")
		}
		return telemetry.Hooks{}
	}

	g, err := Run("panic", m, jobs, Unweighted, Options{
		Validate: true, KeepGoing: true, Hooks: boom,
	})
	if err != nil {
		t.Fatalf("KeepGoing run failed: %v", err)
	}
	bad := g.Cell(sched.OrderPSRS, sched.StartList)
	if bad == nil || !strings.Contains(bad.Err, "boom: injected cell failure") {
		t.Fatalf("panicking cell not recorded: %+v", bad)
	}
	if !strings.Contains(bad.Err, "robustness_test.go") {
		t.Errorf("cell error lacks the panic stack: %q", bad.Err)
	}
	healthy := 0
	for _, c := range g.Cells {
		if c.Err == "" && c.Value > 0 {
			healthy++
		}
	}
	if healthy != 12 {
		t.Errorf("%d healthy cells, want 12", healthy)
	}

	if _, err := Run("panic", m, jobs, Unweighted, Options{Validate: true, Hooks: boom}); err == nil ||
		!strings.Contains(err.Error(), "boom: injected cell failure") {
		t.Errorf("without KeepGoing the panic must surface as the run error, got %v", err)
	}
}

// TestCellTimeoutWatchdog: a cell exceeding its wall-clock budget is
// interrupted and reported as a cell error, not as a hung process. The
// workload is a pathological conservative-backfilling case (a huge
// same-instant queue on a tiny machine) whose first pass alone exceeds
// the 1ms budget.
func TestCellTimeoutWatchdog(t *testing.T) {
	jobs := make([]*job.Job, 20000)
	for i := range jobs {
		jobs[i] = &job.Job{ID: job.ID(i), Submit: 0, Nodes: 1, Runtime: 5, Estimate: 5}
	}
	g, err := Run("watchdog", sim.Machine{Nodes: 2}, jobs, Unweighted, Options{
		Orders:      []sched.OrderName{sched.OrderFCFS},
		Starts:      []sched.StartName{sched.StartConservative},
		KeepGoing:   true,
		CellTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := g.Cell(sched.OrderFCFS, sched.StartConservative)
	if cell == nil || !strings.Contains(cell.Err, "wall-clock budget") {
		t.Fatalf("overrunning cell not reported: %+v", cell)
	}
}

// TestFaultGridDeterministicAcrossWorkers: with a generated fault plan
// and resubmit backoff threaded through every cell, the rendered tables
// must stay byte-identical whatever the worker-pool size.
func TestFaultGridDeterministicAcrossWorkers(t *testing.T) {
	jobs := robustnessJobs(t, 200, 126)
	m := sim.Machine{Nodes: 256}
	_, last := job.Span(jobs)
	plan, err := faults.Generate(faults.Config{
		MachineNodes:    m.Nodes,
		Horizon:         last,
		Seed:            7,
		MTBF:            float64(last) / 20,
		MTTR:            3600,
		NodesPerFailure: 32,
		Maintenance: []faults.Window{
			{At: last / 4, Duration: 7200, Nodes: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		t.Helper()
		g, err := Run("faults", m, jobs, Unweighted, Options{
			Parallel:  true,
			Workers:   workers,
			Validate:  true,
			Failures:  plan.Failures,
			Announced: plan.Announced,
			Resubmit:  sim.ResubmitPolicy{MaxResubmits: 5, BackoffBase: 60, BackoffCap: 3600},
		})
		if err != nil {
			t.Fatal(err)
		}
		aborts := 0
		for _, c := range g.Cells {
			aborts += c.Aborted
		}
		if aborts == 0 {
			t.Fatal("fault plan injected no aborts; scenario is not exercising failures")
		}
		return renderGrid(t, g)
	}
	want := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != want {
			t.Errorf("fault tables differ between 1 and %d workers:\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, want, workers, got)
		}
	}
}

// TestKeepGoingRendersFailedCell: a -keepgoing grid whose PSRS/List cell
// panics renders that cell as ERR with no percent — not as a value of 0
// at -100.0%, which reads as a perfect schedule.
func TestKeepGoingRendersFailedCell(t *testing.T) {
	boom := func(o sched.OrderName, s sched.StartName) telemetry.Hooks {
		if o == sched.OrderPSRS && s == sched.StartList {
			panic("boom: injected cell failure")
		}
		return telemetry.Hooks{}
	}
	g, err := Run("keepgoing", sim.Machine{Nodes: 256}, robustnessJobs(t, 100, 125), Unweighted,
		Options{Validate: true, KeepGoing: true, Hooks: boom})
	if err != nil {
		t.Fatal(err)
	}
	out := renderGrid(t, g)
	var psrs string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "PSRS ") {
			psrs = line
		}
	}
	if !strings.HasPrefix(psrs, "PSRS          ERR                    ") {
		t.Errorf("failed PSRS/List cell not marked ERR:\n%s", out)
	}
	if strings.Contains(out, "-100.0%") || strings.Contains(out, "0.00E+00") {
		t.Errorf("failed cell rendered as a result:\n%s", out)
	}
}
