// Package telemetry is the simulator's observability layer: a pluggable
// Recorder captures a structured decision trace (arrivals, starts with a
// start-reason classification, completions, failure aborts and capacity
// changes) plus cheap run counters (scheduling passes, backfill attempts
// and successes per start policy, availability-profile operation counts,
// queue-depth and free-node time series).
//
// The trace is the reproducibility artifact the paper's methodology
// implies: Sections 5.1–5.2 argue about *why* EASY delays the queue head
// or conservative backfilling holds a reservation, and the trace records
// exactly those decisions so `analyze -explain` can reconstruct them
// after the fact.
//
// Everything is opt-in. A nil Recorder in sim.Options and sched.Config
// costs one pointer comparison per decision point — BENCH_2.json records
// that the disabled path stays within a few percent of the untraced
// engine.
package telemetry

// Type classifies a trace event.
type Type string

// Event types emitted by the engine and the start policies.
const (
	// EventArrival is a job submission delivered to the scheduler
	// (including resubmissions after a failure abort, flagged Resubmit).
	EventArrival Type = "arrival"
	// EventStart is a job beginning execution. Start events carry the
	// start-reason classification and, for backfilling, the computed
	// shadow/spare values and the blocking queue head.
	EventStart Type = "start"
	// EventFinish is a job completion (Killed marks kill-at-limit
	// cancellations).
	EventFinish Type = "finish"
	// EventAbort is a running attempt cut short by a hardware failure;
	// the job is resubmitted (an EventArrival with Resubmit follows).
	EventAbort Type = "abort"
	// EventCapacity is the net machine-capacity change applied at one
	// instant (Delta < 0: nodes lost to a failure; Delta > 0: repaired).
	// Simultaneous failure edges are coalesced into one net event.
	EventCapacity Type = "capacity"
	// EventPass is one scheduler query (Startable call) with the queue
	// depth and free-node count at query time — the raw material of the
	// queue/free time series.
	EventPass Type = "pass"
	// EventBackfill is a backfilling start policy engaging its backfill
	// machinery because the queue head cannot start: EASY records the
	// head's shadow time and spare nodes, conservative the blocked head.
	// Whether the attempt succeeded shows up as a subsequent EventStart
	// with Depth > 0.
	EventBackfill Type = "backfill-attempt"
	// EventLost is a job dropped after exhausting its resubmit budget
	// (sim.ResubmitPolicy.MaxResubmits): the aborted attempt is not
	// resubmitted and the job never completes.
	EventLost Type = "lost"
)

// Reason classifies why a start policy started a job — the taxonomy of
// the paper's Section 5 start policies.
type Reason string

// Start reasons.
const (
	// ReasonHeadOfQueue: the job was the head of the priority order and
	// enough nodes were free (strict list scheduling; also EASY's head
	// start).
	ReasonHeadOfQueue Reason = "head-of-queue"
	// ReasonScanFit: Garey&Graham's free-for-all scan found the job to be
	// the first in priority order that fits the free nodes.
	ReasonScanFit Reason = "scan-fit"
	// ReasonBackfillBeforeShadow: EASY backfill — the job's estimated
	// completion does not reach the blocked head's shadow time.
	ReasonBackfillBeforeShadow Reason = "backfill-before-shadow"
	// ReasonBackfillSpareNodes: EASY backfill — the job fits into the
	// nodes the head will not need at its shadow time.
	ReasonBackfillSpareNodes Reason = "backfill-spare-nodes"
	// ReasonReservationDueNow: conservative backfilling — the job's
	// reservation in the rebuilt profile is due exactly now.
	ReasonReservationDueNow Reason = "reservation-due-now"
)

// None marks an absent job reference in an Event (job IDs are dense from
// 0, so 0 cannot double as a null).
const None int64 = -1

// Event is one record of the decision trace. Numeric fields that do not
// apply to the event type are zero (or None for the job references);
// consumers must switch on Type. The JSON field names are the stable
// JSONL schema documented in DESIGN.md §8.
type Event struct {
	Type Type  `json:"ev"`
	At   int64 `json:"at"`
	// Job is the subject job's ID, or None.
	Job int64 `json:"job"`
	// Nodes is the subject job's width (arrival/start/finish/abort).
	Nodes int `json:"nodes,omitempty"`
	// Free is the number of unassigned nodes at the event: for EventPass
	// the count offered to the scheduler, for EventStart the count
	// remaining after the start.
	Free int `json:"free,omitempty"`
	// Queue is the waiting-queue depth (EventPass).
	Queue int `json:"queue,omitempty"`
	// Starter names the start policy that made the decision
	// (EventStart/EventBackfill).
	Starter string `json:"starter,omitempty"`
	// Reason classifies an EventStart.
	Reason Reason `json:"reason,omitempty"`
	// Depth is the started job's position in the priority order at start
	// time (0 = queue head; > 0 means some earlier job was overtaken).
	Depth int `json:"depth,omitempty"`
	// Head is the blocking queue head (EventBackfill, and backfill
	// EventStarts), or None.
	Head int64 `json:"head"`
	// Shadow is EASY's computed shadow time: the estimated instant the
	// blocked head can start (EventBackfill and EASY backfill starts).
	Shadow int64 `json:"shadow,omitempty"`
	// Spare is EASY's spare-node count at the shadow time.
	Spare int `json:"spare,omitempty"`
	// Killed marks a kill-at-limit completion (EventFinish).
	Killed bool `json:"killed,omitempty"`
	// Resubmit marks an arrival that is a post-abort resubmission.
	Resubmit bool `json:"resubmit,omitempty"`
	// Delta is the net capacity change (EventCapacity).
	Delta int `json:"delta,omitempty"`
	// Attempt is the 1-based count of failure aborts the job has suffered
	// so far (EventAbort, post-abort resubmit arrivals, EventLost); 0 on
	// events that predate failure handling.
	Attempt int `json:"attempt,omitempty"`
}

// Decision is the classification of one start decision, as reported by a
// start policy: the reason taxonomy plus the computed backfill values.
// The engine merges it into the EventStart record.
type Decision struct {
	// Starter names the start policy.
	Starter string
	// Reason classifies the start.
	Reason Reason
	// Depth is the started job's position in the priority order
	// (0 = queue head).
	Depth int
	// Head is the blocked queue head the job overtook, or None.
	Head int64
	// Shadow and Spare are EASY's computed reservation values (shadow
	// time of the head, spare nodes at that time); zero elsewhere.
	Shadow int64
	Spare  int
}

// Recorder consumes trace events. Implementations are driven from a
// single simulation goroutine and need not be safe for concurrent use.
//
// A nil Recorder disables tracing; every emission site guards with a nil
// check so the disabled path costs one branch. Callers must take care
// not to wrap a typed nil in the interface (a non-nil interface holding
// a nil *JSONL would be invoked).
type Recorder interface {
	Record(ev Event)
}

// multi fans events out to several recorders.
type multi []Recorder

func (m multi) Record(ev Event) {
	for _, r := range m {
		r.Record(ev)
	}
}

// Multi combines recorders; nil entries are dropped. It returns nil when
// nothing remains (so the nil fast path is preserved) and the sole
// survivor when only one remains.
func Multi(rs ...Recorder) Recorder {
	var out multi
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Buffer is an in-memory Recorder, mainly for tests and for explain-style
// post-processing without a file round trip.
type Buffer struct {
	events []Event
}

// Record implements Recorder.
func (b *Buffer) Record(ev Event) { b.events = append(b.events, ev) }

// Events returns the recorded events in emission order. The slice is
// owned by the buffer.
func (b *Buffer) Events() []Event { return b.events }

// Len returns the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }
