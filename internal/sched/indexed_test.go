package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

// Every order policy stores its waiting queue once, in a queue.Index,
// and every pass reads it there. These tests pin the index against a
// test-only naive order op for op (same jobs, same sequence, after every
// Push/Remove, for all five order policies) and gate the alloc-free
// width scan.

// naiveOrder is the reference: the queue as two plain slices (the plan's
// tail, the arrivals since), linear delete, and — for a replanning policy
// — the policy's own compute behind the paper's replan trigger. FCFS has
// no compute: everything stays an arrival, in submission order.
type naiveOrder struct {
	plan, unplanned   []*job.Job
	planSize, started int
	ratio             float64
	compute           func([]*job.Job) []*job.Job
}

func (n *naiveOrder) push(j *job.Job) { n.unplanned = append(n.unplanned, j) }

func (n *naiveOrder) remove(j *job.Job) {
	if i := slices.Index(n.plan, j); i >= 0 {
		n.plan = slices.Delete(n.plan, i, i+1)
		n.started++
	} else if i := slices.Index(n.unplanned, j); i >= 0 {
		n.unplanned = slices.Delete(n.unplanned, i, i+1)
	}
}

func (n *naiveOrder) ordered() []*job.Job {
	all := append(slices.Clone(n.plan), n.unplanned...)
	q := len(all)
	if n.compute == nil || q == 0 || (len(n.plan) > 0 &&
		float64(n.started) <= n.ratio*float64(n.planSize) &&
		float64(len(n.unplanned)) <= (1-n.ratio)*float64(q)) {
		return all
	}
	n.plan, n.unplanned = n.compute(all), nil
	n.planSize, n.started = q, 0
	return slices.Clone(n.plan)
}

// indexedOrderers builds one instance of each order policy (both SMART
// variants) next to its naive reference — the differential pairs.
func indexedOrderers(nodes int) []struct {
	Orderer
	ref *naiveOrder
} {
	cfg := Config{MachineNodes: nodes}.withDefaults()
	psrs, ffia, nfiw := NewPSRSOrder(cfg), NewSMARTOrder(FFIA, cfg), NewSMARTOrder(NFIW, cfg)
	replanning := func(rp *replanner) *naiveOrder {
		return &naiveOrder{ratio: rp.ratio, compute: rp.compute}
	}
	return []struct {
		Orderer
		ref *naiveOrder
	}{
		{NewFCFSOrder(string(OrderFCFS)), &naiveOrder{}},
		{NewFCFSOrder("Garey&Graham"), &naiveOrder{}},
		{psrs, replanning(psrs.replanner)},
		{ffia, replanning(ffia.replanner)},
		{nfiw, replanning(nfiw.replanner)},
	}
}

// TestIndexedOrdererMatchesSlice drives every order policy and its naive
// reference through the same Push/Remove sequences and checks after each
// operation that the index enumerates exactly the reference order — same
// jobs, same sequence, same length, order statistics (Rank, Select)
// consistent with it.
//
// Two sequences: a long random one on a small queue with removals biased
// toward the head (what list scheduling does), and one on a queue of more
// than 10k jobs where nine removals in ten leave from the middle (what a
// backfill or a Garey&Graham scan-fit does, and what the index's
// tombstones, compaction and plan/arrival boundary have to survive).
func TestIndexedOrdererMatchesSlice(t *testing.T) {
	const nodes = 64
	for _, o := range indexedOrderers(nodes) {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			var pending, got []*job.Job
			nextID := job.ID(0)
			now := int64(0)
			check := func(op string) {
				t.Helper()
				want := o.ref.ordered()
				ix := o.OrderedIter(now)
				if ix.Len() != len(want) || o.Len() != len(want) {
					t.Fatalf("%s: index len %d, orderer len %d, reference len %d",
						op, ix.Len(), o.Len(), len(want))
				}
				got = ix.AppendOrdered(got[:0])
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: position %d: index has job %d, reference job %d",
							op, i, got[i].ID, want[i].ID)
					}
				}
				if len(want) > 0 {
					k := r.Intn(len(want))
					j, slot := ix.Select(k)
					if j != want[k] {
						t.Fatalf("%s: Select(%d) = job %v, want job %d", op, k, j, want[k].ID)
					}
					if rank := ix.Rank(slot); rank != k {
						t.Fatalf("%s: Rank(Select(%d)) = %d", op, k, rank)
					}
				}
			}
			push := func() *job.Job {
				now++
				j := &job.Job{
					ID:       nextID,
					Nodes:    1 + r.Intn(nodes),
					Submit:   now,
					Estimate: int64(1 + r.Intn(5000)),
				}
				j.Runtime = j.Estimate
				nextID++
				pending = append(pending, j)
				o.Push(j, now)
				o.ref.push(j)
				return j
			}
			remove := func(k int) *job.Job {
				now++
				j := pending[k]
				pending = slices.Delete(pending, k, k+1)
				o.Remove(j, now)
				o.ref.remove(j)
				return j
			}

			for step := 0; step < 1200; step++ {
				if len(pending) == 0 || r.Intn(10) < 6 {
					check(fmt.Sprintf("step %d push %d", step, push().ID))
				} else {
					// Bias removals toward the head: that is what the engine
					// does (jobs start from the front of the order).
					k := r.Intn(len(pending))
					if r.Intn(2) == 0 {
						k = r.Intn((len(pending) + 3) / 4)
					}
					check(fmt.Sprintf("step %d remove %d", step, remove(k).ID))
				}
			}

			// The deep queue. Filling it is a burst of arrivals with a query
			// only now and then; draining it past half is what makes the
			// index compact under a live plan/arrival boundary. Those two
			// are checked every so often, the mixed traffic that follows
			// after every operation.
			removeDeep := func() *job.Job {
				if r.Intn(10) == 0 {
					// The head of the current order, wherever it was submitted.
					return remove(slices.Index(pending, o.ref.ordered()[0]))
				}
				return remove(r.Intn(len(pending)))
			}
			for len(pending) < 10_500 {
				if j := push(); len(pending)%512 == 0 {
					check(fmt.Sprintf("fill push %d", j.ID))
				}
			}
			for len(pending) > 4_000 {
				if j := removeDeep(); len(pending)%64 == 0 {
					check(fmt.Sprintf("drain remove %d", j.ID))
				}
				if r.Intn(8) == 0 {
					push()
				}
			}
			for step := 0; step < 600; step++ {
				if r.Intn(10) < 3 {
					check(fmt.Sprintf("deep step %d push %d", step, push().ID))
				} else {
					check(fmt.Sprintf("deep step %d remove %d", step, removeDeep().ID))
				}
			}
		})
	}
}

// TestIndexedScanZeroAlloc gates the width-pruned pass: a Garey&Graham
// pass over a deep queue of too-wide jobs must allocate nothing — the
// whole scan is cursor descents over the width index.
func TestIndexedScanZeroAlloc(t *testing.T) {
	o := NewFCFSOrder("Garey&Graham")
	for i := 0; i < 4096; i++ {
		o.Push(&job.Job{ID: job.ID(i), Nodes: 8, Estimate: 100}, int64(i))
	}
	s := NewGareyGrahamStarter()
	ix := o.OrderedIter(5000)
	// Warm the picked/decision buffers so steady-state capacity is measured.
	s.PickMany(ix, 5000, 4, nil, 16, UnlimitedWindow)
	if allocs := testing.AllocsPerRun(100, func() {
		s.PickMany(ix, 5000, 4, nil, 16, UnlimitedWindow)
	}); allocs != 0 {
		t.Fatalf("width-pruned no-fit pass allocates %v objects per run, want 0", allocs)
	}
}

// TestEASYPassZeroAlloc gates EASY's fault-free pass: with a blocked head
// over a 200-entry running list, sorting the running list once per pass
// and inserting each backfill into it must allocate nothing.
func TestEASYPassZeroAlloc(t *testing.T) {
	const nodes = 256
	running := make([]sim.Running, 200)
	for i := range running {
		est := int64(100 + (i*37)%500)
		running[i] = sim.Running{Job: &job.Job{ID: job.ID(1000 + i), Nodes: 1, Estimate: est}, EstEnd: est}
	}
	o := NewFCFSOrder("FCFS")
	o.Push(&job.Job{ID: 1, Nodes: 100, Estimate: 1000}, 0) // blocked head
	o.Push(&job.Job{ID: 2, Nodes: 1, Estimate: 10}, 0)     // backfills before the shadow
	o.Push(&job.Job{ID: 3, Nodes: 2, Estimate: 100000}, 0) // outlasts the shadow, no spare nodes
	o.Push(&job.Job{ID: 4, Nodes: 100, Estimate: 100}, 0)  // too wide to backfill
	s := NewEASYStarter()
	ix := o.OrderedIter(0)
	free := nodes - len(running)
	// Warm the picked/decision/running buffers so steady-state capacity is measured.
	if got := s.PickMany(ix, 0, free, running, nodes, UnlimitedWindow); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("pass started %v, want the one backfill of job 2", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.PickMany(ix, 0, free, running, nodes, UnlimitedWindow)
	}); allocs != 0 {
		t.Fatalf("EASY pass with a blocked head allocates %v objects per run, want 0", allocs)
	}
}
