package profile

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file implements the differential oracle: the tree kernel, the
// optimized array kernel and the brute-force Reference are driven through
// identical operation sequences decoded from a byte stream, and every
// observable — query results, batch-pass start sets, canonical step
// functions, step counts — must match exactly. On divergence the byte
// stream is shrunk (chunked delta-debugging) and the failure reports the
// minimal reproducing op list, ready to be pinned as a regression test.
// The same interpreter backs the seeded randomized property test and the
// FuzzProfileOps / FuzzProfileTree fuzz targets.

// opReader decodes interpreter operands from a byte stream.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) done() bool { return r.pos >= len(r.data) }

func (r *opReader) byte() byte {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// time decodes a small event time; a handful of hot values force step
// collisions and coalescing.
func (r *opReader) time() int64 { return int64(r.byte()) }

// duration decodes a window length, occasionally huge to exercise the
// start+duration overflow clamp near Infinity.
func (r *opReader) duration() int64 {
	b := r.byte()
	switch b % 16 {
	case 0:
		return Infinity
	case 1:
		return Infinity - int64(r.byte())
	default:
		return 1 + int64(b)
	}
}

// reservation is a ledger entry: an interval currently reserved on all
// kernels, so that partial Releases stay feasible by construction.
type reservation struct {
	width      int
	start, end int64
}

// diffOptions tunes one interpreter run.
type diffOptions struct {
	// treeInvariants validates the tree kernel's structural invariants
	// (BST order, heap order, lazy-consistent min/max/count aggregates,
	// logarithmic height) after every operation. FuzzProfileTree sets it;
	// the pure differential paths leave it off for speed.
	treeInvariants bool
}

// diffError is a divergence found by the interpreter, at which op.
type diffError struct {
	op  int
	msg string
}

func (e *diffError) Error() string { return fmt.Sprintf("op %d: %s", e.op, e.msg) }

// interpretDifferential runs one op sequence against all three kernels in
// lockstep and returns the first divergence (nil if none). When log is
// non-nil, every decoded op is appended to it in execution order. Kernel
// panics are captured as divergences so the shrinker can chase them.
func interpretDifferential(data []byte, log *[]string, o diffOptions) (err error) {
	r := &opReader{data: data}
	nodes := 1 + int(r.byte()%64)
	from := r.time()
	// One byte picks the tree's array-mode budget, so the stream explores
	// all three regimes: pure treap, early promotion (the mode boundary),
	// and the production default.
	limit := treeSmallLimit
	switch r.byte() % 3 {
	case 0:
		limit = 0
	case 1:
		limit = 4
	}
	defer func(old int) { treeSmallLimit = old }(treeSmallLimit)
	treeSmallLimit = limit
	tree := NewTree(nodes, from)
	opt := newArray(nodes, from)
	ref := NewReference(nodes, from)
	spareTree, spareOpt, spareRef := &Tree{}, &array{}, &Reference{}
	var ledger []reservation

	opNo := 0
	logf := func(format string, args ...any) {
		if log != nil {
			*log = append(*log, fmt.Sprintf(format, args...))
		}
	}
	logf("init: nodes=%d from=%d treeLimit=%d", nodes, from, limit)

	defer func() {
		if p := recover(); p != nil {
			err = &diffError{op: opNo, msg: fmt.Sprintf("kernel panic: %v", p)}
		}
	}()

	fail := func(format string, args ...any) *diffError {
		return &diffError{op: opNo, msg: fmt.Sprintf(format, args...)}
	}
	// check3 compares tree and array results against the oracle's.
	check3 := func(op string, gotTree, gotOpt, want int64) *diffError {
		if gotTree != want || gotOpt != want {
			return fail("%s diverged: tree %d, array %d, reference %d\ntree:      %v\narray:     %v\nreference: %v",
				op, gotTree, gotOpt, want, tree, opt, ref)
		}
		return nil
	}

	for ; !r.done() && opNo < 512; opNo++ {
		switch r.byte() % 10 {
		case 0: // EarliestFit
			w := 1 + int(r.byte())%nodes
			d := r.duration()
			nb := r.time()
			logf("EarliestFit(%d, %d, %d)", w, d, nb)
			if e := check3("EarliestFit",
				tree.EarliestFit(w, d, nb), opt.EarliestFit(w, d, nb), ref.EarliestFit(w, d, nb)); e != nil {
				return e
			}
		case 1: // Reserve a feasible interval found by the oracle
			w := 1 + int(r.byte())%nodes
			d := r.duration()
			nb := r.time()
			at := ref.EarliestFit(w, d, nb)
			logf("Reserve(%d, fit@%d, d=%d) // nb=%d", w, at, d, nb)
			if e := check3("EarliestFit(pre-Reserve)",
				tree.EarliestFit(w, d, nb), opt.EarliestFit(w, d, nb), at); e != nil {
				return e
			}
			if at == Infinity {
				continue
			}
			end := satEnd(at, d)
			tree.Reserve(w, at, end)
			opt.Reserve(w, at, end)
			ref.Reserve(w, at, end)
			ledger = append(ledger, reservation{width: w, start: at, end: end})
		case 2: // Release the tail of an outstanding reservation
			if len(ledger) == 0 {
				continue
			}
			i := int(r.byte()) % len(ledger)
			res := ledger[i]
			span := res.end - res.start
			cut := res.start
			if span > 1 {
				cut += int64(r.byte()) % span
			}
			logf("Release(%d, %d, %d)", res.width, cut, res.end)
			tree.Release(res.width, cut, res.end)
			opt.Release(res.width, cut, res.end)
			ref.Release(res.width, cut, res.end)
			if cut == res.start {
				ledger = append(ledger[:i], ledger[i+1:]...)
			} else {
				ledger[i].end = cut
			}
		case 3: // MinFree
			lo := r.time()
			hi := lo + 1 + int64(r.byte())
			logf("MinFree(%d, %d)", lo, hi)
			if e := check3("MinFree",
				int64(tree.MinFree(lo, hi)), int64(opt.MinFree(lo, hi)), int64(ref.MinFree(lo, hi))); e != nil {
				return e
			}
		case 4: // FreeAt
			at := r.time()
			logf("FreeAt(%d)", at)
			if e := check3("FreeAt",
				int64(tree.FreeAt(at)), int64(opt.FreeAt(at)), int64(ref.FreeAt(at))); e != nil {
				return e
			}
		case 5: // monotone query run: the cursor fast path must stay exact
			at := r.time()
			logf("FreeAt(monotone from %d)", at)
			for k := 0; k < 4; k++ {
				if e := check3("FreeAt(monotone)",
					int64(tree.FreeAt(at)), int64(opt.FreeAt(at)), int64(ref.FreeAt(at))); e != nil {
					return e
				}
				at += int64(r.byte() % 8)
			}
		case 6: // ReserveClamped: drains may overcommit freely, the kernel
			// saturates at zero (and must coalesce interior zero runs).
			w := 1 + int(r.byte())%nodes
			at := r.time()
			end := at + 1 + int64(r.byte())
			logf("ReserveClamped(%d, %d, %d)", w, at, end)
			tree.ReserveClamped(w, at, end)
			opt.ReserveClamped(w, at, end)
			ref.ReserveClamped(w, at, end)
		case 7: // Reset: new machine size and origin, reservations void
			nodes = 1 + int(r.byte()%64)
			from = r.time()
			logf("Reset(%d, %d)", nodes, from)
			tree.Reset(nodes, from)
			opt.Reset(nodes, from)
			ref.Reset(nodes, from)
			ledger = ledger[:0]
		case 8: // CloneInto a spare and continue on the copy
			logf("CloneInto(swap)")
			tree.CloneInto(spareTree)
			opt.CloneInto(spareOpt)
			ref.CloneInto(spareRef)
			tree, spareTree = spareTree, tree
			opt, spareOpt = spareOpt, opt
			ref, spareRef = spareRef, ref
		case 9: // batch pass: BeginPass / StartMany / CommitPass
			now := r.time()
			k := 1 + int(r.byte()%4)
			reqs := make([]StartReq, 0, k)
			for n := 0; n < k; n++ {
				reqs = append(reqs, StartReq{Nodes: 1 + int(r.byte())%nodes, Duration: r.duration()})
			}
			logf("BatchPass(now=%d, reqs=%v)", now, reqs)
			tree.BeginPass(now)
			ref.BeginPass(now)
			sTree := tree.StartMany(reqs, nil)
			sOpt := seqStartLoop(opt, reqs, now) // the array has no batch API
			sRef := ref.StartMany(reqs, nil)
			tree.CommitPass()
			ref.CommitPass()
			for n := range reqs {
				if e := check3(fmt.Sprintf("StartMany[%d]", n), sTree[n], sOpt[n], sRef[n]); e != nil {
					return e
				}
				if sRef[n] != Infinity {
					ledger = append(ledger, reservation{
						width: reqs[n].Nodes,
						start: sRef[n],
						end:   satEnd(sRef[n], reqs[n].Duration),
					})
				}
			}
		}
		if tree.StepCount() != ref.StepCount() || opt.StepCount() != ref.StepCount() {
			return fail("step counts diverged: tree %d (%v), array %d (%v), reference %d (%v)",
				tree.StepCount(), tree, opt.StepCount(), opt, ref.StepCount(), ref)
		}
		if s := ref.String(); tree.String() != s || opt.String() != s {
			return fail("canonical forms diverged:\ntree:      %v\narray:     %v\nreference: %v", tree, opt, ref)
		}
		if o.treeInvariants {
			if e := checkTreeInvariants(tree); e != nil {
				return fail("tree invariant violated: %v\ntree: %v", e, tree)
			}
		}
	}
	return nil
}

// shrinkBytes minimizes a failing byte stream by chunked removal
// (delta-debugging): ever-smaller chunks are dropped while the input
// keeps failing. Bounded by a run budget so pathological inputs cannot
// stall a test.
func shrinkBytes(data []byte, fails func([]byte) bool) []byte {
	cur := append([]byte(nil), data...)
	budget := 3000
	for chunk := len(cur) / 2; chunk > 0; {
		removed := false
		for start := 0; start+chunk <= len(cur) && budget > 0; start += chunk {
			budget--
			cand := append(append([]byte(nil), cur[:start]...), cur[start+chunk:]...)
			if len(cand) > 0 && fails(cand) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed || budget <= 0 {
			chunk /= 2
		}
		if budget <= 0 {
			break
		}
	}
	return cur
}

// runDifferential interprets one op sequence against all three kernels
// and, on divergence, fails with the shrunken minimal reproducing op
// list.
func runDifferential(t *testing.T, data []byte, o diffOptions) {
	t.Helper()
	first := interpretDifferential(data, nil, o)
	if first == nil {
		return
	}
	min := shrinkBytes(data, func(cand []byte) bool {
		return interpretDifferential(cand, nil, o) != nil
	})
	var log []string
	minErr := interpretDifferential(min, &log, o)
	t.Fatalf("differential divergence: %v\n\nminimal repro (%d bytes): %#v\nreplayed ops:\n  %s\nminimal failure: %v",
		first, len(min), min, strings.Join(log, "\n  "), minErr)
}

// TestDifferentialRandomOps drives all three kernels through seeded
// randomized op sequences. Any mismatch in EarliestFit, MinFree, FreeAt,
// Reserve/Release effects, batch-pass start sets, Reset/CloneInto state,
// coalescing, or step counts fails the test with a minimal repro.
func TestDifferentialRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	for seq := 0; seq < 400; seq++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		runDifferential(t, data, diffOptions{})
	}
}

// TestDifferentialRandomOpsTreeInvariants is the structural flavor: the
// same seeded sequences with the tree's BST/heap/aggregate/height
// invariants validated after every op.
func TestDifferentialRandomOpsTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7EE1))
	for seq := 0; seq < 100; seq++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		runDifferential(t, data, diffOptions{treeInvariants: true})
	}
}

// TestDifferentialAdversarial pins hand-built sequences at the known
// boundary behaviors: permanently blocked tails (reservations to
// Infinity), huge durations, and queries before the profile start.
func TestDifferentialAdversarial(t *testing.T) {
	defer func(old int) { treeSmallLimit = old }(treeSmallLimit)
	treeSmallLimit = 0 // the boundary cases must hit the treap, not the array fallback
	nodes := 8
	tree := NewTree(nodes, 50)
	opt := newArray(nodes, 50)
	ref := NewReference(nodes, 50)
	for _, p := range []interface {
		Reserve(nodes int, start, end int64)
		Release(nodes int, start, end int64)
	}{tree, opt, ref} {
		p.Reserve(5, 60, Infinity) // permanent: only 3 free from t=60 on
		p.Reserve(3, 100, 200)     // fully blocked window inside the tail
		p.Release(5, 90, 100)      // early-completion handback before it
	}
	type q struct {
		w  int
		d  int64
		nb int64
	}
	for _, c := range []q{
		{1, 10, 0}, {1, 10, 1000}, {4, 1, 0}, {4, 1, 70},
		{4, Infinity, 0}, {1, Infinity, 0}, {8, 1, 0}, {8, 2, 0},
		{3, Infinity - 1, 55}, {1, 1, Infinity - 1},
	} {
		want := ref.EarliestFit(c.w, c.d, c.nb)
		if got := tree.EarliestFit(c.w, c.d, c.nb); got != want {
			t.Errorf("tree EarliestFit(%d,%d,%d): got %d, reference %d", c.w, c.d, c.nb, got, want)
		}
		if got := opt.EarliestFit(c.w, c.d, c.nb); got != want {
			t.Errorf("array EarliestFit(%d,%d,%d): got %d, reference %d", c.w, c.d, c.nb, got, want)
		}
	}
	for lo := int64(0); lo < 250; lo += 7 {
		if a, b := tree.MinFree(lo, lo+13), ref.MinFree(lo, lo+13); a != b {
			t.Errorf("tree MinFree(%d,%d): got %d, reference %d", lo, lo+13, a, b)
		}
		if a, b := opt.MinFree(lo, lo+13), ref.MinFree(lo, lo+13); a != b {
			t.Errorf("array MinFree(%d,%d): got %d, reference %d", lo, lo+13, a, b)
		}
		if a, b := tree.FreeAt(lo), ref.FreeAt(lo); a != b {
			t.Errorf("tree FreeAt(%d): got %d, reference %d", lo, a, b)
		}
		if a, b := opt.FreeAt(lo), ref.FreeAt(lo); a != b {
			t.Errorf("array FreeAt(%d): got %d, reference %d", lo, a, b)
		}
	}
	if s := ref.String(); tree.String() != s || opt.String() != s {
		t.Errorf("canonical forms diverged:\ntree:      %v\narray:     %v\nreference: %v", tree, opt, ref)
	}
	if e := checkTreeInvariants(tree); e != nil {
		t.Errorf("tree invariant violated: %v", e)
	}
}

// FuzzProfileOps is the fuzz entry of the same differential oracle: the
// fuzzer mutates the op stream, the interpreter keeps all three
// implementations in lockstep. Run with
//
//	go test -fuzz FuzzProfileOps ./internal/profile
func FuzzProfileOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{63, 10, 1, 3, 200, 0, 17, 0, 255, 255, 1, 2, 3, 4, 5, 6, 7, 8})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		data := make([]byte, 32+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
	}
	addStartManyEdges(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := interpretDifferential(data, nil, diffOptions{}); err != nil {
			t.Fatalf("differential divergence: %v", err)
		}
	})
}

// addStartManyEdges seeds a fuzz target with op streams at the edges of
// the array mode's one-scan StartMany (see
// TestDifferentialShrunkenRegressions): on an 8-node machine from t=0 in
// array mode, a pass whose end saturates to Infinity followed by a
// permanent job; and, after Reserve(4 nodes, d=51) at [20, 71), a pass
// at 30 whose window starts and ends mid-step, one at 61 ending exactly
// on the boundary at 71, and one at 30 too wide for the reserved step,
// which starts on the last step.
func addStartManyEdges(f *testing.F) {
	f.Add([]byte{7, 0, 2, 9, 10, 0, 3, 1, 5, 9, 10, 0, 3, 0})
	f.Add([]byte{7, 0, 2, 1, 3, 50, 20, 9, 30, 0, 1, 9})
	f.Add([]byte{7, 0, 2, 1, 3, 50, 20, 9, 61, 0, 1, 9})
	f.Add([]byte{7, 0, 2, 1, 3, 50, 20, 9, 30, 0, 5, 9})
}

// TestDifferentialShrunkenRegressions pins, as explicit op sequences,
// the minimal repros the shrinker produced while the oracle itself was
// being validated against deliberately broken kernel builds (the byte
// streams decode differently now that the interpreter grew a small-mode
// limit operand, so the decoded ops are pinned instead). Each case
// failed pre-fix on its sabotaged build:
//
//   - batch+release: with deferred edge coalescing broken, an
//     uncoalesced equal-valued step pair survived CommitPass and the
//     step counts diverged (tree 5, oracle 4);
//   - reset+batch: the same class through the Reset path — spurious
//     steps after a reset, a one-job pass and an early release;
//   - batch aggregate: with max-aggregate maintenance broken, a batched
//     reservation left a stale subtree max (stored 36, actual 54),
//     caught by the invariant checker rather than an answer mismatch.
//
// The startmany cases pin the edges of the array mode's one-scan
// placement (array.startOne), which splits the window its fit search
// stopped on instead of searching for the boundaries again: an end that
// saturates to Infinity (the step at Infinity must appear, and a job
// only the step at Infinity admits must reserve nothing), a window
// starting mid-step at the pass time, one ending exactly on a step
// boundary, and one starting on the last step.
//
// They run in both tree regimes, so a regression in deferred coalescing
// or lazy aggregate maintenance trips here with a three-op repro
// before the randomized suites go hunting for one.
func TestDifferentialShrunkenRegressions(t *testing.T) {
	defer func(old int) { treeSmallLimit = old }(treeSmallLimit)
	for _, limit := range []int{0, treeSmallLimit} {
		treeSmallLimit = limit
		pass := func(k Kernel, now int64, reqs ...StartReq) []int64 {
			k.BeginPass(now)
			defer k.CommitPass()
			return k.StartMany(reqs, nil)
		}
		for _, tc := range []struct {
			name  string
			drive func(k Kernel) []int64
		}{
			{"batch-release-coalesce", func(k Kernel) []int64 {
				starts := pass(k, 239, StartReq{Nodes: 23, Duration: 184}, StartReq{Nodes: 6, Duration: Infinity}, StartReq{Nodes: 11, Duration: 39})
				k.Release(23, 239, 423)
				return starts
			}},
			{"reset-batch-coalesce", func(k Kernel) []int64 {
				k.Reset(15, 139)
				starts := pass(k, 166, StartReq{Nodes: 5, Duration: 89})
				k.Release(5, 166, 255)
				return starts
			}},
			{"batch-max-aggregate", func(k Kernel) []int64 {
				return pass(k, 0, StartReq{Nodes: 1, Duration: Infinity - 1})
			}},
			{"startmany-saturated-end", func(k Kernel) []int64 {
				return pass(k, 80, StartReq{Nodes: 20, Duration: Infinity - 5}, StartReq{Nodes: 31, Duration: Infinity},
					StartReq{Nodes: 5, Duration: 3})
			}},
			{"startmany-mid-step", func(k Kernel) []int64 {
				k.Reserve(4, 100, 151)
				return pass(k, 110, StartReq{Nodes: 2, Duration: 10})
			}},
			{"startmany-end-on-boundary", func(k Kernel) []int64 {
				k.Reserve(4, 100, 151)
				return pass(k, 141, StartReq{Nodes: 2, Duration: 10}, StartReq{Nodes: 45, Duration: 10})
			}},
			{"startmany-last-step", func(k Kernel) []int64 {
				k.Reserve(4, 100, 151)
				return pass(k, 110, StartReq{Nodes: 50, Duration: 10}, StartReq{Nodes: 51, Duration: 7})
			}},
		} {
			tree := NewTree(51, 73)
			ref := NewReference(51, 73)
			if got, want := tc.drive(tree), tc.drive(ref); !slices.Equal(got, want) {
				t.Errorf("limit %d, %s: starts %v, reference %v", limit, tc.name, got, want)
			}
			if tree.String() != ref.String() {
				t.Errorf("limit %d, %s: canonical forms diverged:\ntree:      %v\nreference: %v", limit, tc.name, tree, ref)
			}
			if tree.StepCount() != ref.StepCount() {
				t.Errorf("limit %d, %s: step counts diverged: tree %d, reference %d", limit, tc.name, tree.StepCount(), ref.StepCount())
			}
			if e := checkTreeInvariants(tree); e != nil {
				t.Errorf("limit %d, %s: tree invariant violated: %v", limit, tc.name, e)
			}
		}
	}
}
