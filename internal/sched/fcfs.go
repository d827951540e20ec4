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
// The queue is a slice with a head index: jobs almost always leave from
// the front (FCFS starts the head, backfilling starts a small prefix),
// so head removal is O(1) and the backing array is compacted only when
// the dead prefix dominates. With 100k+ queued jobs this turns a pass's
// removals from quadratic memmove traffic into constant work.
//
// Alongside the slice it maintains a queue.Index over the same order
// (BatchOrderer): submission order never changes under removal, so the
// index is never rebuilt — Push appends and Remove tombstones, both
// O(log Q) — and the batched passes iterate it with width pruning
// instead of scanning the slice.
type FCFSOrder struct {
	name  string
	queue []*job.Job
	head  int
	// ix mirrors queue[head:].
	ix *queue.Index
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
	o.queue = append(o.queue, j)
	o.ix.Push(j)
}

// Remove implements Orderer.
func (o *FCFSOrder) Remove(j *job.Job, now int64) {
	o.ix.Remove(j)
	if o.head < len(o.queue) && o.queue[o.head] == j {
		o.queue[o.head] = nil // release for GC; the slot is dead
		o.head++
		if o.head == len(o.queue) {
			o.queue, o.head = o.queue[:0], 0
		} else if o.head > 64 && o.head > len(o.queue)/2 {
			n := copy(o.queue, o.queue[o.head:])
			clearTail := o.queue[n:]
			for i := range clearTail {
				clearTail[i] = nil
			}
			o.queue, o.head = o.queue[:n], 0
		}
		return
	}
	for i := o.head; i < len(o.queue); i++ {
		if o.queue[i] == j {
			copy(o.queue[i:], o.queue[i+1:])
			o.queue[len(o.queue)-1] = nil
			o.queue = o.queue[:len(o.queue)-1]
			return
		}
	}
}

// Ordered implements Orderer.
func (o *FCFSOrder) Ordered(now int64) []*job.Job { return o.queue[o.head:] }

// Len implements Orderer.
func (o *FCFSOrder) Len() int { return len(o.queue) - o.head }

// OrderedIter implements BatchOrderer.
func (o *FCFSOrder) OrderedIter(now int64) *queue.Index { return o.ix }

// BatchWindow implements BatchOrderer: taking any job out never changes
// the relative order of the rest, so a batch is never cut short.
func (o *FCFSOrder) BatchWindow() int { return UnlimitedWindow }

// Instrument implements Instrumented: attaches the queue-index operation
// counter.
func (o *FCFSOrder) Instrument(h telemetry.Hooks) { o.ix.SetStats(h.QueueStats) }
