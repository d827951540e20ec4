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
// The queue is stored once, in a queue.Index: submission order never
// changes under removal, so the index is never rebuilt — Push appends
// and Remove tombstones, wherever in the queue the job sat (an EASY
// backfill or a Garey&Graham scan-fit leaves from the middle as cheaply
// as the head does). Start policies iterate the index with width
// pruning; nothing keeps a second copy of the order.
type FCFSOrder struct {
	name string
	ix   *queue.Index
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
func (o *FCFSOrder) Push(j *job.Job, now int64) { o.ix.Push(j) }

// Remove implements Orderer.
func (o *FCFSOrder) Remove(j *job.Job, now int64) { o.ix.Remove(j) }

// Len implements Orderer.
func (o *FCFSOrder) Len() int { return o.ix.Len() }

// OrderedIter implements Orderer.
func (o *FCFSOrder) OrderedIter(now int64) *queue.Index { return o.ix }

// Walk implements Orderer.
func (o *FCFSOrder) Walk() queue.Cursor { return o.ix.Iter() }

// BatchWindow implements Orderer: taking any job out never changes the
// relative order of the rest, so a pass is never cut short.
func (o *FCFSOrder) BatchWindow() int { return UnlimitedWindow }

// Instrument implements Instrumented: attaches the queue-index operation
// counter.
func (o *FCFSOrder) Instrument(h telemetry.Hooks) { o.ix.SetStats(h.QueueStats) }
