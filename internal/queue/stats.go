package queue

import (
	"fmt"

	"jobsched/internal/job"
)

// Stats counts queue-index operations. It is the telemetry hook for the
// indexed waiting queue: attach one Stats to an Index via SetStats and
// every mutation and query increments the matching counter. Detached
// (the default), the index pays a single nil check per operation.
//
// Counters are plain fields, not atomics: an Index is owned by one
// simulation goroutine (see the package doc), and so is its Stats.
type Stats struct {
	// Mutations.
	Pushes  int64
	Removes int64
	// Hides counts pass-local exclusions (jobs picked mid-pass).
	Hides int64
	// Rebuilds counts whole-order rebuilds (plan epochs); RebuiltSlots the
	// total slots written by them.
	Rebuilds     int64
	RebuiltSlots int64
	// Compactions counts tombstone sweeps, Grows capacity doublings.
	Compactions int64
	Grows       int64

	// Queries.
	// Steps counts plain cursor advances, FitQueries width-pruned ones.
	Steps      int64
	FitQueries int64
	// RankQueries/SelectQueries count order-statistic lookups (telemetry
	// depth and head reconstruction).
	RankQueries   int64
	SelectQueries int64
}

// Total returns the summed operation count, saturating rather than
// wrapping on pathological counter magnitudes. Structural bookkeeping
// (RebuiltSlots, Compactions, Grows) is excluded: it measures shape, not
// scheduling work.
func (s *Stats) Total() int64 {
	var total int64
	for _, c := range []int64{s.Pushes, s.Removes, s.Hides, s.Rebuilds,
		s.Steps, s.FitQueries, s.RankQueries, s.SelectQueries} {
		total = job.AddSat(total, c)
	}
	return total
}

// String renders the counters compactly for reports. Epoch and shape
// counts only appear when nonzero, so reports from runs that never
// exercise those paths stay short.
func (s *Stats) String() string {
	out := fmt.Sprintf("push=%d remove=%d step=%d fit=%d rank=%d select=%d",
		s.Pushes, s.Removes, s.Steps, s.FitQueries, s.RankQueries, s.SelectQueries)
	if s.Hides > 0 {
		out += fmt.Sprintf(" hide=%d", s.Hides)
	}
	if s.Rebuilds > 0 {
		out += fmt.Sprintf(" rebuilds=%d rebuiltSlots=%d", s.Rebuilds, s.RebuiltSlots)
	}
	if s.Compactions > 0 || s.Grows > 0 {
		out += fmt.Sprintf(" compactions=%d grows=%d", s.Compactions, s.Grows)
	}
	return out
}
