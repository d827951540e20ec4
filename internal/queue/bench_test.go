package queue

import (
	"math/rand"
	"runtime"
	"slices"
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

// BenchmarkIndexDeepBacklog measures the life of a 100k-job backlog on a
// fresh index, the shape of a saturated deep queue: 100k pushes, then
// starts that alternate between the head and the middle of the order until
// the tombstones outnumber the waiting jobs and the slot array compacts,
// then one replan that rebuilds the index in reverse order. It reports the
// time and the allocations per job besides the usual per-op figures.
func BenchmarkIndexDeepBacklog(b *testing.B) {
	const n = 100_000
	r := rand.New(rand.NewSource(5))
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{ID: job.ID(i + 1), Nodes: 1 + r.Intn(256), Estimate: 1 + r.Int63n(5000)}
	}
	plan := make([]*job.Job, 0, n)
	var stats Stats
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		ix := NewIndex()
		ix.SetStats(&stats)
		for _, j := range jobs {
			ix.Push(j)
		}
		for compactions := stats.Compactions; stats.Compactions == compactions; {
			head, _ := ix.First()
			ix.Remove(head)
			mid, _ := ix.Select(ix.Len() / 2)
			ix.Remove(mid)
		}
		plan = ix.AppendOrdered(plan[:0])
		slices.Reverse(plan)
		ix.Rebuild(plan)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perJob := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perJob, "ns/job")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perJob, "allocs/job")
}
