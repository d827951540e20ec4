package sched

import (
	"jobsched/internal/job"
	"jobsched/internal/queue"
	"jobsched/internal/telemetry"
)

// FCFSOrder keeps waiting jobs in submission order (Section 5.1). It is
// fair — a job's completion is independent of later submissions — and
// needs no execution-time knowledge.
//
// The queue is stored once, in a queue.Index (BatchOrderer): submission
// order never changes under removal, so the index is never rebuilt —
// Push appends and Remove tombstones, wherever in the queue the job sat
// (an EASY backfill or a Garey&Graham scan-fit leaves from the middle as
// cheaply as the head does). The batched passes iterate the index with
// width pruning; the Pick loop asks for Ordered, a slice built from the
// index on demand (orderView).
type FCFSOrder struct {
	name string
	ix   *queue.Index
	view orderView
}

// NewFCFSOrder returns a submission-order queue with the given display
// name (Garey&Graham reuses it under its own name).
func NewFCFSOrder(name string) *FCFSOrder {
	return &FCFSOrder{name: name, ix: queue.NewIndex()}
}

// Name implements Orderer.
func (o *FCFSOrder) Name() string { return o.name }

// Push implements Orderer. The engine delivers submissions in time order,
// so appending preserves FCFS order.
func (o *FCFSOrder) Push(j *job.Job, now int64) {
	if o.ix.Push(j) {
		o.view.pushed(j)
	}
}

// Remove implements Orderer.
func (o *FCFSOrder) Remove(j *job.Job, now int64) {
	if ok, _ := o.ix.Remove(j); ok {
		o.view.removed(j)
	}
}

// Ordered implements Orderer.
func (o *FCFSOrder) Ordered(now int64) []*job.Job { return o.view.of(o.ix) }

// Len implements Orderer.
func (o *FCFSOrder) Len() int { return o.ix.Len() }

// OrderedIter implements BatchOrderer.
func (o *FCFSOrder) OrderedIter(now int64) *queue.Index { return o.ix }

// BatchWindow implements BatchOrderer: taking any job out never changes
// the relative order of the rest, so a batch is never cut short.
func (o *FCFSOrder) BatchWindow() int { return UnlimitedWindow }

// Instrument implements Instrumented: attaches the queue-index operation
// counter.
func (o *FCFSOrder) Instrument(h telemetry.Hooks) { o.ix.SetStats(h.QueueStats) }

// orderView is the Ordered slice of an indexed order policy: a copy of
// the index's order that exists only while somebody reads it. The Pick
// loop (ReservedStarter, policy windows, Switching) asks for it once per
// decision, so it is built from the index on the first request and then
// kept valid the cheap way across the two mutations that loop makes —
// an arrival appends, a head start reslices. Anything else (a start from
// the middle, a replan) drops it, and the next request rebuilds it. The
// batched passes never ask, and so never pay.
type orderView struct {
	jobs  []*job.Job
	valid bool
}

// of returns the view, building it from ix if it is not current. The
// slice is valid until the next queue mutation.
func (v *orderView) of(ix *queue.Index) []*job.Job {
	if !v.valid {
		v.jobs = ix.AppendOrdered(v.jobs[:0])
		v.valid = true
	}
	return v.jobs
}

// pushed records that j joined the low-priority end of the order.
func (v *orderView) pushed(j *job.Job) {
	if v.valid {
		v.jobs = append(v.jobs, j)
	}
}

// removed records that j left the order.
func (v *orderView) removed(j *job.Job) {
	if !v.valid {
		return
	}
	if len(v.jobs) > 0 && v.jobs[0] == j {
		v.jobs[0] = nil // release for GC; the slot is dead
		v.jobs = v.jobs[1:]
		return
	}
	v.valid = false
}
