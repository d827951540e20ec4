package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/job"
)

// Every order policy maintains a queue.Index mirror of its slice order:
// the batched passes read the index, the Pick loop reads the slice. These
// tests pin the mirror op-for-op (the index enumerates exactly the slice
// order after every Push/Remove, for all four order policies) and gate
// the alloc-free width scan.

// indexedOrderers builds one instance of each order policy (both SMART
// variants) — the differential subjects.
func indexedOrderers(nodes int) []BatchOrderer {
	cfg := Config{MachineNodes: nodes}.withDefaults()
	return []BatchOrderer{
		NewFCFSOrder(string(OrderFCFS)),
		NewFCFSOrder("Garey&Graham"),
		NewPSRSOrder(cfg),
		NewSMARTOrder(FFIA, cfg),
		NewSMARTOrder(NFIW, cfg),
	}
}

// TestIndexedOrdererMatchesSlice drives every order policy through a
// long random Push/Remove sequence and checks after each operation that
// the index enumerates exactly the slice order: same jobs, same
// sequence, same length, and order statistics (Rank, Select) consistent
// with the enumeration.
func TestIndexedOrdererMatchesSlice(t *testing.T) {
	const nodes = 64
	for _, o := range indexedOrderers(nodes) {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			var pending []*job.Job
			nextID := job.ID(0)
			now := int64(0)
			check := func(op string) {
				t.Helper()
				want := o.Ordered(now)
				ix := o.OrderedIter(now)
				if ix.Len() != len(want) || o.Len() != len(want) {
					t.Fatalf("%s: index len %d, orderer len %d, slice len %d",
						op, ix.Len(), o.Len(), len(want))
				}
				got := ix.AppendOrdered(nil)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: position %d: index has job %d, slice has job %d",
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
			for step := 0; step < 1200; step++ {
				now++
				if len(pending) == 0 || r.Intn(10) < 6 {
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
					check(fmt.Sprintf("step %d push %d", step, j.ID))
				} else {
					// Bias removals toward the head: that is what the engine
					// does (jobs start from the front of the order).
					k := r.Intn(len(pending))
					if r.Intn(2) == 0 {
						k = r.Intn((len(pending) + 3) / 4)
					}
					j := pending[k]
					pending = append(pending[:k], pending[k+1:]...)
					o.Remove(j, now)
					check(fmt.Sprintf("step %d remove %d", step, j.ID))
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
