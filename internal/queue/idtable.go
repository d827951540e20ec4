package queue

import "jobsched/internal/job"

// idPageBits is log2 of the number of consecutive IDs one idTable page
// covers.
const idPageBits = 5

// idPageMask selects an ID's cell within its page.
const idPageMask = 1<<idPageBits - 1

// idPage holds the slots of 32 consecutive IDs: the IDs whose
// ID >> idPageBits is the page's key.
type idPage struct {
	slot [1 << idPageBits]int32 // slot+1 per ID; 0 = absent
	live int32                  // IDs present
}

// idTable maps the IDs of a tree-mode Index's queued jobs to their
// slots. Workload IDs are near-sequential, so the queued IDs crowd into
// few pages and consecutive operations mostly touch the page the last one
// did: a lookup is the memo check and one array read, and the directory
// (a map, probed once per page change) holds one entry per 32 IDs. Any
// int64 ID works, sparse or negative ones at the cost of a page each.
// Lookup-only: nothing ranges over the directory.
type idTable struct {
	dir   map[int64]int32 // page key → index into pages
	pages []idPage
	free  []int32 // indexes of emptied pages, reused before pages grows
	// memoKey and memoPage cache the last page found or created
	// (memoPage -1: none).
	memoKey  int64
	memoPage int32
}

// newIDTable returns an empty table sized for about n dense IDs.
func newIDTable(n int) idTable {
	return idTable{dir: make(map[int64]int32, n>>idPageBits+1), memoPage: -1}
}

// find returns the index of the page with key, or -1.
func (t *idTable) find(key int64) int32 {
	if key == t.memoKey && t.memoPage >= 0 {
		return t.memoPage
	}
	p, ok := t.dir[key]
	if !ok {
		return -1
	}
	t.memoKey, t.memoPage = key, p
	return p
}

// cell returns id's page and its cell in it, taking a page (a recycled
// one first) when id's page is absent.
func (t *idTable) cell(id job.ID) (*idPage, *int32) {
	key := int64(id) >> idPageBits
	p := t.find(key)
	if p < 0 {
		if n := len(t.free); n > 0 {
			p, t.free = t.free[n-1], t.free[:n-1]
		} else {
			p = int32(len(t.pages))
			t.pages = append(t.pages, idPage{})
		}
		t.dir[key] = p
		t.memoKey, t.memoPage = key, p
	}
	pg := &t.pages[p]
	return pg, &pg.slot[id&idPageMask]
}

// get returns id's slot, or -1 when id is absent.
func (t *idTable) get(id job.ID) int {
	p := t.find(int64(id) >> idPageBits)
	if p < 0 {
		return -1
	}
	return int(t.pages[p].slot[id&idPageMask]) - 1
}

// add stores id at slot and reports true, or reports false and changes
// nothing when id is already present.
func (t *idTable) add(id job.ID, slot int) bool {
	pg, c := t.cell(id)
	if *c != 0 {
		return false
	}
	*c = int32(slot + 1)
	pg.live++
	return true
}

// set stores id at slot, present or not.
func (t *idTable) set(id job.ID, slot int) {
	pg, c := t.cell(id)
	if *c == 0 {
		pg.live++
	}
	*c = int32(slot + 1)
}

// del removes id (absent: no-op). A page left empty, and so all zero,
// leaves the directory for the free list.
func (t *idTable) del(id job.ID) {
	key := int64(id) >> idPageBits
	p := t.find(key)
	if p < 0 {
		return
	}
	pg := &t.pages[p]
	if c := &pg.slot[id&idPageMask]; *c != 0 {
		*c = 0
		if pg.live--; pg.live == 0 {
			delete(t.dir, key)
			t.free = append(t.free, p)
			t.memoPage = -1 // find just set the memo to this page
		}
	}
}
