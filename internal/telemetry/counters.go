package telemetry

import (
	"fmt"
	"io"
	"sort"

	"jobsched/internal/profile"
	"jobsched/internal/queue"
)

// Sample is one point of a run-counter time series.
type Sample struct {
	At    int64
	Value int
}

// Counters is a Recorder that derives cheap per-run statistics from the
// event stream instead of storing it: scheduling passes and scheduler
// queries, event counts by type, backfill attempts and successes per
// start policy, start-reason tallies, and queue-depth / free-node time
// series sampled once per event batch. Its Profile field is the
// availability-profile operation counter; Hooks() wires it to the start
// policies' scratch profiles.
//
// Counters is driven from a single simulation goroutine (the Recorder
// contract) and must not be shared across concurrent runs.
type Counters struct {
	// Event tallies.
	Arrivals  int64
	Resubmits int64
	Starts    int64
	Finishes  int64
	Kills     int64
	Aborts    int64
	// Lost counts jobs dropped after exhausting their resubmit budget.
	Lost int64
	// CapacityEvents counts applied net capacity changes (failures and
	// repairs after same-instant coalescing).
	CapacityEvents int64

	// StartableCalls counts scheduler queries (EventPass); Passes counts
	// event batches — distinct instants at which the engine scheduled.
	StartableCalls int64
	Passes         int64

	// BackfillAttempts / BackfillSuccesses count, per start-policy name,
	// how often the backfill machinery engaged (queue head blocked) and
	// how often a job actually overtook the head (start with Depth > 0).
	BackfillAttempts  map[string]int64
	BackfillSuccesses map[string]int64

	// StartReasons tallies the start-reason classification.
	StartReasons map[Reason]int64

	// Profile counts availability-profile kernel operations; attach it to
	// the schedulers via Hooks().
	Profile profile.Stats

	// Queue counts indexed waiting-queue operations (pushes, removals,
	// width-pruned scan steps, order-statistic lookups); attach it via
	// Hooks(). A filtering wrapper's passes add hides: one per inadmissible
	// or already-picked job and start decision.
	Queue queue.Stats

	// QueueDepth and FreeNodes sample the waiting-queue depth and the
	// free-node count at the first scheduler query of every event batch.
	// With SampleCap set, the series are decimated (see below) and
	// therefore approximate; PeakQueueDepth and MinFreeNodes stay exact.
	QueueDepth []Sample
	FreeNodes  []Sample

	// SampleCap bounds the retained time-series length for streaming
	// runs (0 = unlimited, the historical behavior). When a series
	// reaches the cap, every other retained sample is dropped and the
	// sampling stride doubles — a deterministic decimation that keeps
	// the series uniformly spread over the whole run at a resolution of
	// cap/2..cap points, independent of the run's length.
	SampleCap int

	// PeakQueueDepth and MinFreeNodes are exact extrema over every event
	// batch, unaffected by decimation.
	PeakQueueDepth int
	MinFreeNodes   int

	stride      int64
	passSamples int64
	lastPassAt  int64
	sawAnyPass  bool
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{
		BackfillAttempts:  map[string]int64{},
		BackfillSuccesses: map[string]int64{},
		StartReasons:      map[Reason]int64{},
	}
}

// Hooks bundles the telemetry attachment points a scheduler stack
// accepts: the event recorder, the profile operation counter and the
// queue-index operation counter.
type Hooks struct {
	Recorder     Recorder
	ProfileStats *profile.Stats
	QueueStats   *queue.Stats
}

// Hooks returns hooks that feed this counter set (events, profile ops and
// queue-index ops). Combine with a trace writer via Multi:
//
//	h := c.Hooks()
//	h.Recorder = telemetry.Multi(h.Recorder, jsonl)
func (c *Counters) Hooks() Hooks {
	return Hooks{Recorder: c, ProfileStats: &c.Profile, QueueStats: &c.Queue}
}

// Record implements Recorder.
func (c *Counters) Record(ev Event) {
	switch ev.Type {
	case EventArrival:
		c.Arrivals++
		if ev.Resubmit {
			c.Resubmits++
		}
	case EventStart:
		c.Starts++
		if c.StartReasons == nil {
			c.StartReasons = map[Reason]int64{}
		}
		c.StartReasons[ev.Reason]++
		if ev.Depth > 0 {
			if c.BackfillSuccesses == nil {
				c.BackfillSuccesses = map[string]int64{}
			}
			c.BackfillSuccesses[ev.Starter]++
		}
	case EventFinish:
		c.Finishes++
		if ev.Killed {
			c.Kills++
		}
	case EventAbort:
		c.Aborts++
	case EventLost:
		c.Lost++
	case EventCapacity:
		c.CapacityEvents++
	case EventBackfill:
		if c.BackfillAttempts == nil {
			c.BackfillAttempts = map[string]int64{}
		}
		c.BackfillAttempts[ev.Starter]++
	case EventPass:
		c.StartableCalls++
		if !c.sawAnyPass || ev.At != c.lastPassAt {
			if !c.sawAnyPass {
				c.MinFreeNodes = ev.Free
			}
			c.Passes++
			c.sawAnyPass = true
			c.lastPassAt = ev.At
			if ev.Queue > c.PeakQueueDepth {
				c.PeakQueueDepth = ev.Queue
			}
			if ev.Free < c.MinFreeNodes {
				c.MinFreeNodes = ev.Free
			}
			c.sample(ev)
		}
	}
}

// sample appends one time-series point, decimating when the cap is hit.
func (c *Counters) sample(ev Event) {
	if c.stride == 0 {
		c.stride = 1
	}
	if c.passSamples%c.stride == 0 {
		c.QueueDepth = append(c.QueueDepth, Sample{At: ev.At, Value: ev.Queue})
		c.FreeNodes = append(c.FreeNodes, Sample{At: ev.At, Value: ev.Free})
		if c.SampleCap > 0 && len(c.QueueDepth) >= c.SampleCap {
			c.QueueDepth = decimate(c.QueueDepth)
			c.FreeNodes = decimate(c.FreeNodes)
			c.stride *= 2
		}
	}
	c.passSamples++
}

// decimate drops every other sample in place, keeping the first.
func decimate(s []Sample) []Sample {
	n := 0
	for i := 0; i < len(s); i += 2 {
		s[n] = s[i]
		n++
	}
	return s[:n]
}

// Report writes a human-readable summary.
func (c *Counters) Report(w io.Writer) error {
	fmt.Fprintf(w, "events:            %d arrivals (%d resubmits), %d starts, %d finishes (%d killed), %d aborts, %d capacity changes\n",
		c.Arrivals, c.Resubmits, c.Starts, c.Finishes, c.Kills, c.Aborts, c.CapacityEvents)
	if c.Lost > 0 {
		fmt.Fprintf(w, "lost jobs:         %d (resubmit budget exhausted)\n", c.Lost)
	}
	fmt.Fprintf(w, "scheduling:        %d passes, %d scheduler queries\n", c.Passes, c.StartableCalls)
	for _, name := range sortedKeys(c.BackfillAttempts, c.BackfillSuccesses) {
		fmt.Fprintf(w, "backfill [%s]: %d attempts, %d successes\n",
			name, c.BackfillAttempts[name], c.BackfillSuccesses[name])
	}
	for _, r := range sortedReasonKeys(c.StartReasons) {
		fmt.Fprintf(w, "start reason:      %-24s %d\n", r, c.StartReasons[r])
	}
	fmt.Fprintf(w, "profile ops:       %s\n", c.Profile.String())
	if c.Queue.Total() > 0 {
		fmt.Fprintf(w, "queue-index ops:   %s\n", c.Queue.String())
	}
	fmt.Fprintf(w, "peak queue depth:  %d\n", c.PeakQueueDepth)
	_, err := fmt.Fprintf(w, "min free nodes:    %d\n", c.MinFreeNodes)
	return err
}

func sortedKeys(ms ...map[string]int64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func sortedReasonKeys(m map[Reason]int64) []Reason {
	out := make([]Reason, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
