package profile

import (
	"fmt"

	"jobsched/internal/job"
)

// Stats counts availability-profile kernel operations. It is the
// telemetry hook for profile-heavy schedulers: attach one Stats to a
// scratch profile via SetStats and every kernel call increments the
// matching counter. Detached (the default), the kernel pays a single
// nil check per operation.
//
// Counters are plain fields, not atomics: a profile is owned by one
// simulation goroutine (see the Tree doc), and so is its Stats.
type Stats struct {
	EarliestFit int64
	Reserve     int64
	// ReserveClamped counts drain reservations (announced maintenance
	// carved out of the profile with saturation at zero).
	ReserveClamped int64
	Release        int64
	FreeAt         int64
	MinFree        int64
	Resets         int64

	// Batch-pass counters (BeginPass/StartMany; see kernel.go). Passes
	// counts BeginPass calls, one per conservative backfilling walk;
	// BatchedStarts the requests placed through StartMany. Excluded
	// from Total: a batched start still performs its EarliestFit and
	// Reserve, which Total already counts — adding the pass bookkeeping
	// would double-count work and shift every report that predates the
	// batch API.
	Passes        int64
	BatchedStarts int64
	// Scanned counts the steps and the block and group bounds the
	// kernel's calls visit: the unit of work of a fit scan or a range
	// update, where the other counters count calls. Excluded from Total and String, like
	// the batch-pass counters, so reports that predate it render as
	// before.
	Scanned int64
	// TreeMaxDepth is always 0: the kernel has no tree since the blocked
	// step array replaced the treap. It stays because the benchmark
	// reports it.
	TreeMaxDepth int64
}

// Total returns the summed operation count, saturating rather than
// wrapping on pathological counter magnitudes.
func (s *Stats) Total() int64 {
	var total int64
	for _, c := range []int64{s.EarliestFit, s.Reserve, s.ReserveClamped,
		s.Release, s.FreeAt, s.MinFree, s.Resets} {
		total = job.AddSat(total, c)
	}
	return total
}

// String renders the counters compactly for reports. The clamped-reserve
// and batch-pass counts only appear when nonzero, so reports from runs
// that never exercise those paths render exactly as before.
func (s *Stats) String() string {
	out := fmt.Sprintf("fit=%d reserve=%d release=%d freeAt=%d minFree=%d resets=%d",
		s.EarliestFit, s.Reserve, s.Release, s.FreeAt, s.MinFree, s.Resets)
	if s.ReserveClamped > 0 {
		out += fmt.Sprintf(" clamped=%d", s.ReserveClamped)
	}
	if s.Passes > 0 || s.BatchedStarts > 0 {
		out += fmt.Sprintf(" passes=%d batched=%d", s.Passes, s.BatchedStarts)
	}
	return out
}
