package queue

import (
	"math/rand"
	"testing"

	"jobsched/internal/job"
)

// BenchmarkIndexShallowPass measures one EASY-shaped scheduling pass over
// a shallow queue of about 40 jobs, the depth of a calibrated stream: an
// arrival is pushed, the head is looked up, the backfill scan walks the
// jobs behind it that fit the free nodes and picks up to two, which are
// hidden as picked, restored at the end of the pass and then removed as
// the engine starts them. One pass in eight also starts the head.
func BenchmarkIndexShallowPass(b *testing.B) {
	const depth, machine = 40, 256
	r := rand.New(rand.NewSource(3))
	// A job waits at most depth·8 passes (the head starts every eighth)
	// while at most three arrive per pass, so the ring never pushes an ID
	// that is still waiting.
	ring := make([]*job.Job, 1024)
	for i := range ring {
		ring[i] = &job.Job{ID: job.ID(i + 1), Nodes: 1 + r.Intn(machine), Estimate: 1 + r.Int63n(5000)}
	}
	ix := NewIndex()
	next := 0
	push := func() {
		ix.Push(ring[next%len(ring)])
		next++
	}
	for ix.Len() < depth {
		push()
	}
	var picked [3]*job.Job
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		np := 0
		head, slot := ix.First()
		if i%8 == 0 {
			picked[np] = head
			np++
			ix.Hide(head)
		}
		free := 1 + (i*37)%(machine/2)
		it := ix.IterAfter(slot)
		for j := it.NextFit(free); j != nil && np < len(picked); j = it.NextFit(free) {
			if j.Estimate%3 == 0 { // passes the shadow-time check
				picked[np] = j
				np++
				free -= j.Nodes
				ix.Hide(j)
			}
		}
		ix.UnhideAll()
		for _, j := range picked[:np] {
			ix.Remove(j)
		}
		for ix.Len() < depth {
			push()
		}
	}
}
