package profile

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// checkTreeInvariants validates the tree kernel's structural invariants
// without disturbing it (lazy tags are accumulated, not pushed):
//
//   - BST order: in-order keys strictly increase;
//   - heap order: every node's priority >= its children's (the treap
//     property that yields the expected-logarithmic height);
//   - aggregates: each node's count/min/max equals the recomputed
//     count/min/max of its subtree's true values (val plus the sum of
//     ancestor lazy tags);
//   - range: every true value lies in [0, machine size];
//   - balance: height <= 4*log2(count)+8 — far above the treap's
//     expected ~1.39*log2 but low enough to catch degeneration into a
//     list (splitmix64 seeding gone wrong).
func checkTreeInvariants(t *Tree) error {
	if t.small != nil {
		// Array mode: no treap to validate, but the embedded kernel must be
		// canonical (sorted, coalesced, in range) and within the budget.
		if len(t.small.steps) == 0 {
			return fmt.Errorf("empty profile: always at least one step")
		}
		if len(t.small.steps) > t.smallLimit {
			return fmt.Errorf("array mode over budget: %d steps, limit %d", len(t.small.steps), t.smallLimit)
		}
		for i, s := range t.small.steps {
			if s.free < 0 || s.free > t.size {
				return fmt.Errorf("value out of range at key %d: %d free on a %d-node machine", s.at, s.free, t.size)
			}
			if i > 0 {
				if prev := t.small.steps[i-1]; s.at <= prev.at {
					return fmt.Errorf("step order violated: key %d after %d", s.at, prev.at)
				} else if s.free == prev.free {
					return fmt.Errorf("uncoalesced steps at keys %d and %d (both %d free)", prev.at, s.at, s.free)
				}
			}
		}
		return nil
	}
	if t.root == nilNode {
		return fmt.Errorf("empty tree: the profile always has at least one step")
	}
	var lastKey int64
	seen := false
	var rec func(i int32, acc int) (count int32, min, max, height int, err error)
	rec = func(i int32, acc int) (int32, int, int, int, error) {
		n := t.pool[i]
		childAcc := acc + n.add
		cnt, height := int32(1), 1
		tv := n.val + acc
		mn, mx := tv, tv
		if n.l != nilNode {
			if t.pool[n.l].pri > n.pri {
				return 0, 0, 0, 0, fmt.Errorf("heap order violated at key %d (left child)", n.key)
			}
			c, m1, m2, h, err := rec(n.l, childAcc)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			cnt += c
			if m1 < mn {
				mn = m1
			}
			if m2 > mx {
				mx = m2
			}
			if h+1 > height {
				height = h + 1
			}
		}
		// In-order position: the key check happens between the subtrees.
		if seen && n.key <= lastKey {
			return 0, 0, 0, 0, fmt.Errorf("BST order violated: key %d after %d", n.key, lastKey)
		}
		lastKey, seen = n.key, true
		if tv < 0 || tv > t.size {
			return 0, 0, 0, 0, fmt.Errorf("value out of range at key %d: %d free on a %d-node machine", n.key, tv, t.size)
		}
		if n.r != nilNode {
			if t.pool[n.r].pri > n.pri {
				return 0, 0, 0, 0, fmt.Errorf("heap order violated at key %d (right child)", n.key)
			}
			c, m1, m2, h, err := rec(n.r, childAcc)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			cnt += c
			if m1 < mn {
				mn = m1
			}
			if m2 > mx {
				mx = m2
			}
			if h+1 > height {
				height = h + 1
			}
		}
		if n.count != cnt {
			return 0, 0, 0, 0, fmt.Errorf("count aggregate stale at key %d: stored %d, actual %d", n.key, n.count, cnt)
		}
		if n.min+acc != mn {
			return 0, 0, 0, 0, fmt.Errorf("min aggregate stale at key %d: stored %d, actual %d", n.key, n.min+acc, mn)
		}
		if n.max+acc != mx {
			return 0, 0, 0, 0, fmt.Errorf("max aggregate stale at key %d: stored %d, actual %d", n.key, n.max+acc, mx)
		}
		return cnt, mn, mx, height, nil
	}
	cnt, _, _, height, err := rec(t.root, 0)
	if err != nil {
		return err
	}
	if limit := 4*bits.Len32(uint32(cnt)) + 8; height > limit {
		return fmt.Errorf("tree degenerated: height %d over %d steps (limit %d)", height, cnt, limit)
	}
	return nil
}

// TestTreeHeightLogarithmic grows a large profile (tens of thousands of
// steps) and asserts the deterministic treap stays balanced — the
// property the O(log S) complexity claims rest on — and that the depth
// telemetry sees the same order of magnitude.
func TestTreeHeightLogarithmic(t *testing.T) {
	var stats Stats
	tr := NewTree(1<<20, 0)
	tr.SetStats(&stats)
	rng := rand.New(rand.NewSource(0x7EE2))
	for i := 0; i < 50000; i++ {
		at := int64(rng.Intn(1 << 30))
		tr.Reserve(1+rng.Intn(4), at, at+1+int64(rng.Intn(1<<12)))
	}
	steps := tr.StepCount()
	if steps < 10000 {
		t.Fatalf("workload too coalesced to measure balance: %d steps", steps)
	}
	height := tr.Height()
	limit := 4*bits.Len(uint(steps)) + 8
	if height > limit {
		t.Fatalf("tree degenerated: height %d over %d steps (limit %d)", height, steps, limit)
	}
	if stats.TreeMaxDepth == 0 || stats.TreeMaxDepth > int64(limit) {
		t.Fatalf("depth telemetry out of range: %d (limit %d)", stats.TreeMaxDepth, limit)
	}
	if stats.TreeRebalances == 0 {
		t.Fatalf("rebalance telemetry never incremented over %d reserves", stats.Reserve)
	}
	if err := checkTreeInvariants(tr); err != nil {
		t.Fatal(err)
	}
}

// TestTreeCloneIndependence pins Clone/CloneInto semantics: the copy
// must match the original exactly and then evolve independently.
func TestTreeCloneIndependence(t *testing.T) {
	defer func(old int) { treeSmallLimit = old }(treeSmallLimit)
	for _, limit := range []int{0, treeSmallLimit} { // treap mode and array mode
		treeSmallLimit = limit
		tr := NewTree(16, 0)
		tr.Reserve(4, 10, 50)
		tr.Reserve(8, 20, Infinity)
		before := tr.String()

		c := tr.Clone()
		if c.String() != before {
			t.Fatalf("limit %d: clone mismatch: %v vs %v", limit, c, tr)
		}
		c.Reserve(2, 5, 15)
		if tr.String() != before {
			t.Fatalf("limit %d: clone mutated the original: %v", limit, tr)
		}

		dst := &Tree{}
		tr.CloneInto(dst)
		if dst.String() != before {
			t.Fatalf("limit %d: CloneInto mismatch: %v vs %v", limit, dst, tr)
		}
		dst.Release(4, 10, 20)
		if tr.String() != before {
			t.Fatalf("limit %d: CloneInto mutated the original: %v", limit, tr)
		}
		if err := checkTreeInvariants(dst); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
	}
}

// TestTreeEarliestFitComplexity bounds the query cost structurally: on a
// profile with many steps but a single feasible gap pattern, one
// EarliestFit must not touch more than O(log S) nodes per blocking run.
// The proxy is the depth telemetry staying logarithmic while the step
// count grows by orders of magnitude.
func TestTreeEarliestFitComplexity(t *testing.T) {
	defer func(old int) { treeSmallLimit = old }(treeSmallLimit)
	treeSmallLimit = 0 // measure the treap at every size, not the array fallback
	for _, steps := range []int{1 << 8, 1 << 12, 1 << 16} {
		tr := NewTree(4, 0)
		// Alternating tall/short steps: 2 free on even slots, 4 on odd.
		for i := 0; i < steps; i++ {
			at := int64(i) * 10
			tr.Reserve(2, at, at+5)
		}
		var stats Stats
		tr.SetStats(&stats)
		// A 3-wide job never fits a reserved slot: the query has to skip
		// every blocking run it crosses, but each skip is one descent.
		if got := tr.EarliestFit(3, 5, 3); got != 5 {
			t.Fatalf("steps=%d: EarliestFit(3,5,3) = %d, want 5", steps, got)
		}
		limit := int64(4*bits.Len(uint(tr.StepCount())) + 8)
		if stats.TreeMaxDepth > limit {
			t.Fatalf("steps=%d: query descended %d levels (limit %d)", steps, stats.TreeMaxDepth, limit)
		}
	}
}

// FuzzProfileTree is the structure-aware fuzz target for the tree
// kernel: the op-tagged byte stream drives all three kernels through the
// shared differential interpreter, and after every operation the tree's
// BST/heap order, lazy-consistent min/max/count aggregates and height
// bound are re-validated. Run with
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
