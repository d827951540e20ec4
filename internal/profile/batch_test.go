package profile

import (
	"fmt"
	"math/rand"
	"testing"
)

// Metamorphic tests for the batch API: by specification (kernel.go),
// BeginPass/StartMany/CommitPass must produce a profile state and a
// start-time sequence identical to the equivalent sequential
// EarliestFit+Reserve loop — on every kernel, including Trees cut into
// tiny blocks, and including drain-crossing and saturating-reserve
// (permanent, to-Infinity) job sets.

// fitReserver is the part of the kernel API a sequential start loop
// needs.
type fitReserver interface {
	EarliestFit(nodes int, duration int64, notBefore int64) int64
	Reserve(nodes int, start, end int64)
}

// seqStartLoop is the explicitly-written sequential loop the batch API is
// specified against. Deliberately NOT startManySequential: the test must
// not compare the implementation against itself.
func seqStartLoop(k fitReserver, reqs []StartReq, now int64) []int64 {
	starts := make([]int64, 0, len(reqs))
	for _, r := range reqs {
		at := k.EarliestFit(r.Nodes, r.Duration, now)
		starts = append(starts, at)
		if at == Infinity {
			continue
		}
		end := at + r.Duration
		if end < at {
			end = Infinity
		}
		k.Reserve(r.Nodes, at, end)
	}
	return starts
}

// buildRandomBase drives both kernels through an identical random
// mutation prefix: feasible reservations (some permanent), drains, and
// early releases. Returns them ready for a batch-vs-sequential trial;
// the Tree's blocks split past 2·half steps.
func buildRandomBase(rng *rand.Rand, nodes, half int) (*Tree, *Reference) {
	tree := newTestTree(nodes, 0, half)
	ref := NewReference(nodes, 0)
	for i, n := 0, rng.Intn(30); i < n; i++ {
		w := 1 + rng.Intn(nodes)
		switch rng.Intn(4) {
		case 0: // plain reservation
			d := int64(1 + rng.Intn(200))
			at := ref.EarliestFit(w, d, int64(rng.Intn(300)))
			if at == Infinity {
				continue
			}
			end := satEnd(at, d)
			tree.Reserve(w, at, end)
			ref.Reserve(w, at, end)
		case 1: // drain (may overcommit, saturates at zero)
			lo := int64(rng.Intn(300))
			hi := lo + 1 + int64(rng.Intn(120))
			tree.ReserveClamped(w, lo, hi)
			ref.ReserveClamped(w, lo, hi)
		case 2: // permanent reservation: a tail short of w nodes forever
			at := ref.EarliestFit(w, Infinity, int64(rng.Intn(100)))
			if at == Infinity {
				continue
			}
			tree.Reserve(w, at, Infinity)
			ref.Reserve(w, at, Infinity)
		case 3: // release a fresh feasible slice (early completion)
			d := int64(10 + rng.Intn(100))
			at := ref.EarliestFit(w, d, int64(rng.Intn(200)))
			if at == Infinity {
				continue
			}
			end := satEnd(at, d)
			tree.Reserve(w, at, end)
			ref.Reserve(w, at, end)
			cut := at + (end-at)/2
			if cut > at {
				tree.Release(w, cut, end)
				ref.Release(w, cut, end)
			}
		}
	}
	return tree, ref
}

// randomReqs generates a batch, occasionally saturating (full-width or
// infinite-duration jobs) so some starts land at Infinity mid-batch.
func randomReqs(rng *rand.Rand, nodes int) []StartReq {
	reqs := make([]StartReq, 1+rng.Intn(12))
	for i := range reqs {
		w := 1 + rng.Intn(nodes)
		d := int64(1 + rng.Intn(150))
		switch rng.Intn(8) {
		case 0:
			d = Infinity // permanent: blocks the tail for later jobs
		case 1:
			w = nodes // full machine: forces serialization
		}
		reqs[i] = StartReq{Nodes: w, Duration: d}
	}
	return reqs
}

// TestStartManyMatchesSequentialLoop is the core metamorphic property:
// for random bases and random batches, StartMany ≡ the sequential loop,
// per kernel, in both the start-time sequence and the canonical profile.
// At the production block size every base is one block, so those trials
// check the one-scan placement (Tree.startOne) on a flat array; with
// blocks of at most two or four steps a batch splits and drops blocks
// mid-way.
func TestStartManyMatchesSequentialLoop(t *testing.T) {
	halves := []int{1, 2, blockSteps}
	rng := rand.New(rand.NewSource(0xBA7C4))
	multiBlock := 0
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + rng.Intn(64)
		tree, ref := buildRandomBase(rng, nodes, halves[trial%len(halves)])
		if len(tree.blocks) > 1 {
			multiBlock++
		}
		now := int64(rng.Intn(250))
		reqs := randomReqs(rng, nodes)

		for _, tc := range []struct {
			name       string
			batch, seq Kernel
		}{
			{"tree", tree.Clone(), tree.Clone()},
			{"reference", ref.Clone(), ref.Clone()},
		} {
			tc.batch.BeginPass(now)
			batchStarts := tc.batch.StartMany(reqs, nil)
			tc.batch.CommitPass()
			seqStarts := seqStartLoop(tc.seq, reqs, now)

			if len(batchStarts) != len(seqStarts) {
				t.Fatalf("trial %d %s: start count %d vs %d", trial, tc.name, len(batchStarts), len(seqStarts))
			}
			for i := range reqs {
				if batchStarts[i] != seqStarts[i] {
					t.Fatalf("trial %d %s: req %d %+v started at %d batched, %d sequential\nbase: %v\nnow=%d reqs=%v",
						trial, tc.name, i, reqs[i], batchStarts[i], seqStarts[i], ref, now, reqs)
				}
			}
			if tc.batch.String() != tc.seq.String() {
				t.Fatalf("trial %d %s: profiles diverged after batch\nbatched:    %v\nsequential: %v\nnow=%d reqs=%v",
					trial, tc.name, tc.batch, tc.seq, now, reqs)
			}
			if tc.batch.StepCount() != tc.seq.StepCount() {
				t.Fatalf("trial %d %s: step counts diverged: %d batched, %d sequential",
					trial, tc.name, tc.batch.StepCount(), tc.seq.StepCount())
			}
		}
		if tr := tree.Clone(); true {
			tr.BeginPass(now)
			tr.StartMany(reqs, nil)
			tr.CommitPass()
			if err := checkTreeInvariants(tr); err != nil {
				t.Fatalf("trial %d: tree invariant violated after batch: %v", trial, err)
			}
		}
	}
	if multiBlock < 100 {
		t.Errorf("only %d of 300 trials started on more than one block", multiBlock)
	}
}

// TestStartManyMidPassDrain exercises a drain landing inside an open
// pass (the failure-aware starter reserves drains between placements):
// the drain's sweep coalescing must compose with the placements' edge
// coalescing, still matching the sequential interleaving exactly.
func TestStartManyMidPassDrain(t *testing.T) {
	halves := []int{1, 2, blockSteps}
	rng := rand.New(rand.NewSource(0xD4A1))
	for trial := 0; trial < 200; trial++ {
		nodes := 2 + rng.Intn(63)
		tree, ref := buildRandomBase(rng, nodes, halves[trial%len(halves)])
		now := int64(rng.Intn(250))
		reqs1 := randomReqs(rng, nodes)
		reqs2 := randomReqs(rng, nodes)
		dw := 1 + rng.Intn(nodes)
		dlo := now + int64(rng.Intn(100))
		dhi := dlo + 1 + int64(rng.Intn(150))

		batch := tree.Clone()
		batch.BeginPass(now)
		b1 := batch.StartMany(reqs1, nil)
		batch.ReserveClamped(dw, dlo, dhi)
		b2 := batch.StartMany(reqs2, nil)
		batch.CommitPass()

		seq := tree.Clone()
		s1 := seqStartLoop(seq, reqs1, now)
		seq.ReserveClamped(dw, dlo, dhi)
		s2 := seqStartLoop(seq, reqs2, now)

		for i := range reqs1 {
			if b1[i] != s1[i] {
				t.Fatalf("trial %d: pre-drain req %d started at %d batched, %d sequential", trial, i, b1[i], s1[i])
			}
		}
		for i := range reqs2 {
			if b2[i] != s2[i] {
				t.Fatalf("trial %d: post-drain req %d started at %d batched, %d sequential", trial, i, b2[i], s2[i])
			}
		}
		if batch.String() != seq.String() {
			t.Fatalf("trial %d: profiles diverged\nbatched:    %v\nsequential: %v\ndrain=(%d,%d,%d) base: %v",
				trial, batch, seq, dw, dlo, dhi, ref)
		}
		if err := checkTreeInvariants(batch); err != nil {
			t.Fatalf("trial %d: tree invariant violated: %v", trial, err)
		}
	}
}

// TestStartManySaturating pins the saturating edge cases by hand: a
// batch that fills the machine mid-pass must hand later jobs the exact
// post-reservation profile, and permanent jobs push followers to
// Infinity — identically on every kernel.
func TestStartManySaturating(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Kernel
	}{
		{"tree", func() Kernel { return NewTree(8, 0) }},
		{"tiny tree", func() Kernel { return newTestTree(8, 0, 1) }},
		{"reference", func() Kernel { return NewReference(8, 0) }},
	} {
		k := tc.mk()
		k.BeginPass(10)
		starts := k.StartMany([]StartReq{
			{Nodes: 8, Duration: 5},        // full machine: [10,15)
			{Nodes: 8, Duration: 5},        // must serialize: [15,20)
			{Nodes: 4, Duration: Infinity}, // permanent from 20 on
			{Nodes: 5, Duration: 1},        // only 4 free from 20 on: Infinity
			{Nodes: 4, Duration: 3},        // fits alongside the permanent job at 20
		}, nil)
		k.CommitPass()
		want := []int64{10, 15, 20, Infinity, 20}
		got := fmt.Sprint(starts)
		if got != fmt.Sprint(want) {
			t.Errorf("%s: starts = %v, want %v (profile %v)", tc.name, starts, want, k)
		}
	}
}
