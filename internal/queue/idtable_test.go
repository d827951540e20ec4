package queue

import (
	"math"
	"testing"

	"jobsched/internal/job"
)

// idRegions are the bases FuzzIDTable draws IDs around: an ID is a base
// plus an offset byte, so that IDs collide often, share and straddle
// pages, and reach both ends of the int64 range.
var idRegions = []int64{0, -128, 1 << 40, math.MinInt64, math.MaxInt64 - 255}

// FuzzIDTable interprets the input as a sequence of idTable operations —
// add, set, del, get, and a Rebuild-shaped reset (delete every present
// ID, then set some of them and some new ones) — and compares each
// result, and every present ID's slot, with a plain map after each one.
// It also checks the pages themselves: the live counts match the cells,
// the directory holds exactly the pages in use, and a page on the free
// list is all zero.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 0, 0, 2, 5, 2, 0, 1, 2, 0, 1})
	// A page filled, emptied and filled again from the free list.
	var fill []byte
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			fill = append(fill, 0, 1, byte(i), byte(i))
		}
		for i := 0; i < 40; i++ {
			fill = append(fill, 2, 1, byte(i))
		}
	}
	f.Add(fill)
	// Both ends of the int64 range and the negative page before 0.
	f.Add([]byte{0, 3, 0, 1, 0, 4, 255, 2, 0, 1, 127, 3, 0, 1, 128, 4, 5, 9, 2, 3, 0, 3, 4, 255})
	// Rebuilds between pushes spread over every region.
	f.Add([]byte{0, 0, 1, 1, 0, 2, 33, 2, 0, 3, 64, 3, 5, 1, 1, 0, 4, 7, 4, 5, 7, 2, 2, 33})

	f.Fuzz(func(t *testing.T, data []byte) {
		tab := newIDTable(0)
		want := map[int64]int{} // the model, keyed by the raw ID
		var order []job.ID      // present IDs in insertion order: no map ranging
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nextID := func() job.ID {
			base := idRegions[arg()%len(idRegions)]
			return job.ID(base + int64(arg()))
		}
		forget := func(id job.ID) {
			for i, o := range order {
				if o == id {
					order = append(order[:i], order[i+1:]...)
					return
				}
			}
		}
		for step := 0; len(data) > 0; step++ {
			switch op := arg() % 6; op {
			case 0, 1: // add, set
				id, slot := nextID(), arg()*7+step
				_, present := want[int64(id)]
				if op == 0 {
					if got := tab.add(id, slot); got == present {
						t.Fatalf("step %d: add(%d) = %v with the ID present = %v", step, id, got, present)
					}
					if present {
						break
					}
				} else {
					tab.set(id, slot)
				}
				if !present {
					order = append(order, id)
				}
				want[int64(id)] = slot
			case 2: // del
				id := nextID()
				tab.del(id)
				if _, ok := want[int64(id)]; ok {
					delete(want, int64(id))
					forget(id)
				}
			case 3: // get of any ID, present or not
				id := nextID()
				wantSlot, ok := want[int64(id)]
				if !ok {
					wantSlot = -1
				}
				if got := tab.get(id); got != wantSlot {
					t.Fatalf("step %d: get(%d) = %d, want %d", step, id, got, wantSlot)
				}
			case 4, 5: // Rebuild: every present ID leaves, some return
				keep := arg()
				old := order
				order = nil
				for _, id := range old {
					tab.del(id)
					delete(want, int64(id))
				}
				for i, id := range old {
					if (keep>>(i%8))&1 == 1 {
						tab.set(id, i)
						want[int64(id)] = i
						order = append(order, id)
					}
				}
				for k := arg() % 4; k > 0; k-- {
					id := nextID()
					if _, ok := want[int64(id)]; !ok {
						order = append(order, id)
					}
					tab.set(id, len(order))
					want[int64(id)] = len(order)
				}
			}
			checkIDTable(t, &tab, want, order)
		}
	})
}

// checkIDTable compares tab with want (whose keys order lists) and checks
// the pages' bookkeeping.
func checkIDTable(t *testing.T, tab *idTable, want map[int64]int, order []job.ID) {
	t.Helper()
	if len(order) != len(want) {
		t.Fatalf("model: %d IDs in order, %d in the map", len(order), len(want))
	}
	for _, id := range order {
		if got := tab.get(id); got != want[int64(id)] {
			t.Fatalf("get(%d) = %d, want %d", id, got, want[int64(id)])
		}
	}
	free := make([]bool, len(tab.pages))
	for _, p := range tab.free {
		if free[p] {
			t.Fatalf("page %d is on the free list twice", p)
		}
		free[p] = true
	}
	inUse, total := 0, 0
	for p := range tab.pages {
		pg := &tab.pages[p]
		n := int32(0)
		for _, c := range pg.slot {
			if c != 0 {
				n++
			}
		}
		if n != pg.live {
			t.Fatalf("page %d: live %d, %d cells set", p, pg.live, n)
		}
		if free[p] != (n == 0) {
			t.Fatalf("page %d: %d cells set, on the free list = %v", p, n, free[p])
		}
		if n > 0 {
			inUse++
		}
		total += int(n)
	}
	if inUse != len(tab.dir) || total != len(want) {
		t.Fatalf("%d pages in use, %d in the directory; %d IDs, want %d", inUse, len(tab.dir), total, len(want))
	}
	if p, ok := tab.dir[tab.memoKey]; tab.memoPage >= 0 && (!ok || p != tab.memoPage) {
		t.Fatalf("memo says page %d for key %d, the directory %d (present %v)", tab.memoPage, tab.memoKey, p, ok)
	}
}
