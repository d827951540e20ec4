package profile

import "jobsched/internal/job"

// Kernel is the availability-profile operation set. Two types in this
// package implement it:
//
//   - Tree, the production kernel: a step array cut into blocks with
//     min/max bounds (see profile.go); and
//   - Reference, the brute-force oracle of the differential tests.
//
// Schedulers hold their scratch profiles through this interface so the
// backend is swappable (sched.ProfileFactory): the determinism tests run
// whole evaluation grids against both Tree and Reference and require
// byte-identical tables, and the benchmark wraps Tree to time it.
//
// Every kernel realizes the same canonical step function — identical
// query results, identical String()/StepCount() after every operation —
// which is what the differential oracle enforces.
type Kernel interface {
	// Nodes returns the machine size.
	Nodes() int
	// Reset reinitializes to a fully free machine, reusing storage.
	Reset(nodes int, from int64)
	// FreeAt returns the free nodes at time t.
	FreeAt(t int64) int
	// MinFree returns the minimum free nodes over [start, end).
	MinFree(start, end int64) int
	// EarliestFit returns the earliest time >= notBefore at which `nodes`
	// nodes are free for `duration` seconds (Infinity if never).
	EarliestFit(nodes int, duration int64, notBefore int64) int64
	// Reserve subtracts free nodes on [start, end); panics on overcommit.
	Reserve(nodes int, start, end int64)
	// ReserveClamped subtracts free nodes on [start, end), saturating at
	// zero (announced capacity drains).
	ReserveClamped(nodes int, start, end int64)
	// Release adds free nodes on [start, end); panics beyond machine size.
	Release(nodes int, start, end int64)
	// BeginPass opens a batched scheduling pass (see StartMany).
	BeginPass(now int64)
	// StartMany places each request at its earliest fit from the pass
	// time and reserves it, appending the start times to `starts`. The
	// resulting profile state and start-time set are identical to the
	// equivalent sequential EarliestFit+Reserve loop (the metamorphic
	// property the batch tests pin), and Stats counts it as that loop.
	// It is how the conservative walk places each job it does not keep,
	// one request at a time; Tree answers each request with a single
	// scan.
	StartMany(reqs []StartReq, starts []int64) []int64
	// CommitPass closes the pass, restoring the canonical form when the
	// implementation deferred coalescing work during the pass.
	CommitPass()
	// StepCount returns the number of steps (diagnostics, tests).
	StepCount() int
	// String renders the canonical step function.
	String() string
	// SetStats attaches (or detaches, with nil) an operation counter.
	SetStats(s *Stats)
}

var (
	_ Kernel = (*Tree)(nil)
	_ Kernel = (*Reference)(nil)
)

// StartReq is one job in a batched scheduling pass: a node width and an
// estimated duration, in queue-priority order.
type StartReq struct {
	Nodes    int
	Duration int64
}

// satEnd returns at+duration saturated to Infinity on overflow (the
// convention every EarliestFit caller in this package uses for
// reservation ends). Times are non-negative, so job.AddSat's MaxInt64
// ceiling is exactly Infinity.
func satEnd(at, duration int64) int64 {
	return job.AddSat(at, duration)
}

// startManySequential is the shared batch-pass reference loop: place each
// request at its earliest fit from `now` and reserve it. Tree places each
// request in one scan instead, but the resulting step function must be
// identical to this loop — that is the batch API's defining property.
func startManySequential(k Kernel, reqs []StartReq, now int64, starts []int64) []int64 {
	for _, r := range reqs {
		at := k.EarliestFit(r.Nodes, r.Duration, now)
		starts = append(starts, at)
		if at == Infinity {
			continue
		}
		if end := satEnd(at, r.Duration); end > at {
			k.Reserve(r.Nodes, at, end)
		}
	}
	return starts
}
