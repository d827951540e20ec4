package profile

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkTreeInvariants validates the blocked step array without
// disturbing it (nothing is tightened or summarized):
//
//   - shape: at least one block, none empty, none over 2·B steps, each
//     knowing its first step's time, and one group per 2^gshift blocks;
//   - block bounds: min <= free <= max for every step of the block, with
//     equality on both sides unless the block is marked loose, so that the
//     bounds plus the block's lazy add bound its true values;
//   - group bounds: a group not marked stale bounds the true values of
//     all of its blocks' steps;
//   - canonical form: keys strictly increase across block boundaries,
//     and no two neighbors share a true free count;
//   - range: every true value lies in [0, machine size].
func checkTreeInvariants(t *Tree) error {
	if len(t.blocks) == 0 {
		return fmt.Errorf("no blocks: the profile always has at least one step")
	}
	if want := (len(t.blocks) + 1<<t.gshift - 1) >> t.gshift; len(t.groups) != want {
		return fmt.Errorf("%d groups for %d blocks, want %d", len(t.groups), len(t.blocks), want)
	}
	var prev *step
	prevFree := 0
	for b := range t.blocks {
		blk := &t.blocks[b]
		if len(blk.steps) == 0 || len(blk.steps) > 2*t.half {
			return fmt.Errorf("block %d holds %d steps (limit %d)", b, len(blk.steps), 2*t.half)
		}
		if blk.first != blk.steps[0].at {
			return fmt.Errorf("block %d starts at %d, not %d", b, blk.steps[0].at, blk.first)
		}
		grp := &t.groups[b>>t.gshift]
		mn, mx := blk.steps[0].free, blk.steps[0].free
		for k := range blk.steps {
			s := &blk.steps[k]
			mn, mx = min(mn, s.free), max(mx, s.free)
			free := s.free + blk.add
			if free < 0 || free > t.nodes {
				return fmt.Errorf("value out of range at key %d: %d free on a %d-node machine", s.at, free, t.nodes)
			}
			if !grp.stale && (free < grp.min || free > grp.max) {
				return fmt.Errorf("group %d bounds [%d, %d] miss %d free at key %d", b>>t.gshift, grp.min, grp.max, free, s.at)
			}
			if prev != nil {
				if s.at <= prev.at {
					return fmt.Errorf("step order violated: key %d after %d", s.at, prev.at)
				}
				if free == prevFree {
					return fmt.Errorf("uncoalesced steps at keys %d and %d (both %d free)", prev.at, s.at, free)
				}
			}
			prev, prevFree = s, free
		}
		if blk.min > mn || blk.max < mx || !blk.loose && (blk.min != mn || blk.max != mx) {
			return fmt.Errorf("block %d bounds [%d, %d] (loose %v) wrong: steps span [%d, %d] (add %d)",
				b, blk.min, blk.max, blk.loose, mn, mx, blk.add)
		}
	}
	return nil
}

// newTestTree returns NewTree when half is blockSteps, and otherwise a
// Tree with blocks of up to 2·half steps in groups of two blocks, so that
// small profiles exercise both summary levels.
func newTestTree(nodes int, from int64, half int) *Tree {
	if half == blockSteps {
		return NewTree(nodes, from)
	}
	return newTreeBlocks(nodes, from, half, 1)
}

// TestTreeBlockSizesBounded grows a large profile (tens of thousands of
// steps) and asserts the blocks stay within their bounds — the property
// the scan costs rest on — and that the blocks hold B to 2·B steps on
// average, so a scan reads about S/B summaries, not S.
func TestTreeBlockSizesBounded(t *testing.T) {
	tr := NewTree(1<<20, 0)
	rng := rand.New(rand.NewSource(0x7EE2))
	for i := 0; i < 50000; i++ {
		at := int64(rng.Intn(1 << 30))
		tr.Reserve(1+rng.Intn(4), at, at+1+int64(rng.Intn(1<<12)))
	}
	steps := tr.StepCount()
	if steps < 10000 {
		t.Fatalf("workload too coalesced to measure blocks: %d steps", steps)
	}
	if got, limit := len(tr.blocks), steps/blockSteps+1; got > limit {
		t.Fatalf("%d blocks over %d steps (limit %d)", got, steps, limit)
	}
	if err := checkTreeInvariants(tr); err != nil {
		t.Fatal(err)
	}
}

// TestTreeCloneIndependence pins Clone/CloneInto semantics: the copy
// must match the original exactly and then evolve independently.
func TestTreeCloneIndependence(t *testing.T) {
	for _, half := range []int{1, blockSteps} { // many blocks, and one
		tr := newTestTree(16, 0, half)
		tr.Reserve(4, 10, 50)
		tr.Reserve(8, 20, Infinity)
		before := tr.String()

		c := tr.Clone()
		if c.String() != before {
			t.Fatalf("B=%d: clone mismatch: %v vs %v", half, c, tr)
		}
		c.Reserve(2, 5, 15)
		if tr.String() != before {
			t.Fatalf("B=%d: clone mutated the original: %v", half, tr)
		}

		dst := &Tree{}
		tr.CloneInto(dst)
		if dst.String() != before {
			t.Fatalf("B=%d: CloneInto mismatch: %v vs %v", half, dst, tr)
		}
		dst.Release(4, 10, 20)
		if tr.String() != before {
			t.Fatalf("B=%d: CloneInto mutated the original: %v", half, tr)
		}
		if err := checkTreeInvariants(dst); err != nil {
			t.Fatalf("B=%d: %v", half, err)
		}
	}
}

// TestTreeEarliestFitComplexity bounds the query cost structurally,
// through Stats.Scanned: a query that crosses a whole profile of S steps
// must visit at most S/B bounds plus a few blocks of steps, whether
// every block admits the job or none does. The first query after the
// profile was built pays for tightening the bounds its mutations left
// loose; the bound holds from the second on.
func TestTreeEarliestFitComplexity(t *testing.T) {
	for _, steps := range []int{1 << 8, 1 << 12, 1 << 16} {
		span := int64(steps) * 10
		// Alternating tall/short steps: 2 free on even slots, 4 on odd.
		alternating := NewTree(4, 0)
		// The same slots at 1 and 2 free: a 3-wide job is blocked everywhere.
		deep := NewTree(4, 0)
		deep.Reserve(2, 0, span)
		for i := 0; i < steps; i++ {
			at := int64(i) * 10
			alternating.Reserve(2, at, at+5)
			deep.Reserve(1, at, at+5)
		}
		for _, c := range []struct {
			name         string
			tr           *Tree
			w            int
			d, nb, want  int64
			boundedFirst bool
		}{
			{"immediate", alternating, 3, 5, 3, 5, true},
			{"every block admits", alternating, 2, span, 3, 3, false},
			{"no block admits", deep, 3, 50, 0, span, false},
		} {
			for query := 0; query < 2; query++ {
				var stats Stats
				c.tr.SetStats(&stats)
				if got := c.tr.EarliestFit(c.w, c.d, c.nb); got != c.want {
					t.Fatalf("steps=%d %s: EarliestFit(%d,%d,%d) = %d, want %d", steps, c.name, c.w, c.d, c.nb, got, c.want)
				}
				limit := int64(c.tr.StepCount()/blockSteps + 4*blockSteps)
				if (query > 0 || c.boundedFirst) && stats.Scanned > limit {
					t.Fatalf("steps=%d %s: query %d scanned %d steps and summaries (limit %d)",
						steps, c.name, query, stats.Scanned, limit)
				}
			}
		}
	}
}

// FuzzProfileTree is the structure-aware fuzz target for the blocked
// kernel: the op-tagged byte stream drives both Trees and the Reference
// through the shared differential interpreter, and after every operation
// both Trees' block invariants (sizes, summaries, canonical form) are
// re-validated. Run with
//
//	go test -fuzz FuzzProfileTree ./internal/profile
func FuzzProfileTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 9, 0, 3, 2, 5, 9, 200, 2, 1, 7, 1, 9})
	f.Add([]byte{63, 10, 1, 3, 200, 0, 17, 0, 255, 255, 9, 9, 9, 8, 7, 6, 5})
	rng := rand.New(rand.NewSource(0x7EE3))
	for i := 0; i < 8; i++ {
		data := make([]byte, 32+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
	}
	addStartManyEdges(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := interpretDifferential(data, nil, diffOptions{treeInvariants: true}); err != nil {
			t.Fatalf("differential divergence: %v", err)
		}
	})
}
