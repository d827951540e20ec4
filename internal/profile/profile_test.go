package profile

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewFullyFree(t *testing.T) {
	p := New(256, 1000)
	if p.Nodes() != 256 {
		t.Fatalf("Nodes = %d", p.Nodes())
	}
	if got := p.FreeAt(1000); got != 256 {
		t.Errorf("FreeAt(start) = %d", got)
	}
	if got := p.FreeAt(1 << 40); got != 256 {
		t.Errorf("FreeAt(far future) = %d", got)
	}
}

func TestNewPanicsOnBadNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, 0)
}

func TestReserveAndFreeAt(t *testing.T) {
	p := New(10, 0)
	p.Reserve(4, 10, 20)
	p.Reserve(2, 15, 30)
	cases := []struct {
		t    int64
		want int
	}{
		{0, 10}, {9, 10}, {10, 6}, {14, 6}, {15, 4}, {19, 4},
		{20, 8}, {29, 8}, {30, 10},
	}
	for _, c := range cases {
		if got := p.FreeAt(c.t); got != c.want {
			t.Errorf("FreeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestReserveOvercommitPanics(t *testing.T) {
	p := New(4, 0)
	p.Reserve(3, 0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overcommit")
		}
	}()
	p.Reserve(2, 5, 8)
}

func TestReleaseRestoresCapacity(t *testing.T) {
	p := New(8, 0)
	p.Reserve(8, 0, 100)
	p.Release(8, 40, 100) // early completion hands back the remainder
	if got := p.FreeAt(39); got != 0 {
		t.Errorf("FreeAt(39) = %d", got)
	}
	if got := p.FreeAt(40); got != 8 {
		t.Errorf("FreeAt(40) = %d", got)
	}
}

func TestReleaseBeyondMachinePanics(t *testing.T) {
	p := New(4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Release(1, 0, 10)
}

func TestReserveBadArgsPanics(t *testing.T) {
	p := New(4, 0)
	for _, c := range []struct {
		n    int
		s, e int64
	}{{0, 0, 10}, {1, 10, 10}, {1, 10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", c)
				}
			}()
			p.Reserve(c.n, c.s, c.e)
		}()
	}
}

func TestEarliestFitImmediate(t *testing.T) {
	p := New(10, 0)
	if got := p.EarliestFit(10, 100, 0); got != 0 {
		t.Errorf("empty machine fit = %d", got)
	}
}

func TestEarliestFitAfterDrain(t *testing.T) {
	p := New(10, 0)
	p.Reserve(8, 0, 50)
	// 6 nodes are free only from t=50.
	if got := p.EarliestFit(6, 10, 0); got != 50 {
		t.Errorf("fit = %d, want 50", got)
	}
	// 2 nodes fit immediately.
	if got := p.EarliestFit(2, 10, 0); got != 0 {
		t.Errorf("small fit = %d, want 0", got)
	}
}

func TestEarliestFitHole(t *testing.T) {
	// Free window between two busy periods, long enough only for short jobs.
	p := New(4, 0)
	p.Reserve(4, 0, 10)
	p.Reserve(4, 20, 30)
	if got := p.EarliestFit(4, 10, 0); got != 10 {
		t.Errorf("hole fit = %d, want 10", got)
	}
	// Too long for the hole: must wait until the second block drains.
	if got := p.EarliestFit(4, 11, 0); got != 30 {
		t.Errorf("long fit = %d, want 30", got)
	}
}

func TestEarliestFitNotBefore(t *testing.T) {
	p := New(4, 0)
	if got := p.EarliestFit(1, 5, 77); got != 77 {
		t.Errorf("notBefore fit = %d, want 77", got)
	}
}

func TestEarliestFitTooWidePanics(t *testing.T) {
	p := New(4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.EarliestFit(5, 10, 0)
}

func TestEarliestFitHugeDurationOverflow(t *testing.T) {
	p := New(4, 0)
	p.Reserve(4, 0, 10)
	// Duration near MaxInt64 must not overflow the window check.
	if got := p.EarliestFit(1, Infinity-5, 0); got != 10 {
		t.Errorf("huge-duration fit = %d, want 10", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(8, 0)
	p.Reserve(4, 0, 10)
	c := p.Clone()
	c.Reserve(4, 0, 10)
	if p.FreeAt(5) != 4 {
		t.Error("Clone shares steps with the original")
	}
	if c.FreeAt(5) != 0 {
		t.Error("Clone lost the reservation")
	}
}

func TestMinFree(t *testing.T) {
	p := New(10, 0)
	p.Reserve(4, 10, 20)
	p.Reserve(2, 15, 30)
	// Free: [0,10)=10, [10,15)=6, [15,20)=4, [20,30)=8, [30,∞)=10.
	cases := []struct {
		lo, hi int64
		want   int
	}{
		{0, 10, 10},
		{0, 12, 6},
		{0, 100, 4},
		{20, 40, 8},
		{5, 16, 4},
	}
	for _, c := range cases {
		if got := p.MinFree(c.lo, c.hi); got != c.want {
			t.Errorf("MinFree(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestMinFreePanicsOnEmptyInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(4, 0).MinFree(10, 10)
}

func TestCoalesceKeepsStepsMinimal(t *testing.T) {
	p := New(8, 0)
	p.Reserve(2, 10, 20)
	p.Release(2, 10, 20) // cancel out: profile flat again
	if p.StepCount() != 1 {
		t.Errorf("StepCount = %d after cancel-out, want 1: %v", p.StepCount(), p)
	}
}

func TestString(t *testing.T) {
	p := New(4, 0)
	p.Reserve(1, 5, 6)
	if s := p.String(); !strings.Contains(s, "5:3") {
		t.Errorf("String = %q", s)
	}
}

// TestEarliestFitPermanentlyBlockedTail regresses the EarliestFit tail
// guard: a reservation ending at Infinity leaves the profile permanently
// short of nodes, so the scan runs off the end of the step slice — a case
// the original implementation marked "unreachable". Both implementations
// must report Infinity (no finite start exists) and agree everywhere
// else.
func TestEarliestFitPermanentlyBlockedTail(t *testing.T) {
	p := New(4, 0)
	ref := NewReference(4, 0)
	for _, q := range []interface {
		Reserve(int, int64, int64)
	}{p, ref} {
		q.Reserve(2, 10, Infinity) // only 2 free forever from t=10
	}
	cases := []struct {
		w    int
		d    int64
		nb   int64
		want int64
	}{
		{3, 10, 0, 0},        // fits exactly in the free head [0,10)
		{3, 11, 0, Infinity}, // needs the blocked tail: never
		{3, 1, 20, Infinity}, // notBefore already inside the blocked tail
		{2, 1000, 0, 0},      // narrow enough for the tail
		{4, 10, 0, 0},        // whole machine, exactly the head window
		{4, 11, 0, Infinity}, // whole machine, one second too long
		{3, 10, 1, Infinity}, // shifted window clips into the tail
		{1, Infinity, 5, 5},  // huge duration, narrow job: tail admits it
		{3, Infinity, 0, Infinity},
	}
	for _, c := range cases {
		if got := p.EarliestFit(c.w, c.d, c.nb); got != c.want {
			t.Errorf("optimized EarliestFit(%d,%d,%d) = %d, want %d", c.w, c.d, c.nb, got, c.want)
		}
		if got := ref.EarliestFit(c.w, c.d, c.nb); got != c.want {
			t.Errorf("reference EarliestFit(%d,%d,%d) = %d, want %d", c.w, c.d, c.nb, got, c.want)
		}
	}
}

// TestEarliestFitFullyReservedLastStep covers the extreme of the tail
// guard: the last step holds zero free nodes, so nothing fits after it.
func TestEarliestFitFullyReservedLastStep(t *testing.T) {
	p := New(4, 0)
	ref := NewReference(4, 0)
	p.Reserve(4, 10, Infinity)
	ref.Reserve(4, 10, Infinity)
	for _, impl := range []struct {
		name string
		fit  func(int, int64, int64) int64
	}{{"optimized", p.EarliestFit}, {"reference", ref.EarliestFit}} {
		if got := impl.fit(1, 10, 0); got != 0 {
			t.Errorf("%s: head window fit = %d, want 0", impl.name, got)
		}
		if got := impl.fit(1, 11, 0); got != Infinity {
			t.Errorf("%s: over-long fit = %d, want Infinity", impl.name, got)
		}
		if got := impl.fit(1, 1, 10); got != Infinity {
			t.Errorf("%s: fit inside dead tail = %d, want Infinity", impl.name, got)
		}
		if got := impl.fit(1, 1, Infinity); got != Infinity {
			t.Errorf("%s: fit at Infinity = %d, want Infinity", impl.name, got)
		}
	}
}

// TestEarliestFitMaxInt64Duration regresses the start+duration overflow
// clamp: a duration of math.MaxInt64 (= Infinity) must behave as "forever"
// without wrapping around.
func TestEarliestFitMaxInt64Duration(t *testing.T) {
	p := New(4, 0)
	ref := NewReference(4, 0)
	p.Reserve(2, 10, 20)
	ref.Reserve(2, 10, 20)
	cases := []struct {
		w    int
		nb   int64
		want int64
	}{
		{3, 0, 20}, // blocked by [10,20), feasible forever from 20
		{1, 5, 5},  // narrow enough everywhere
		{2, 0, 0},  // exactly the 2 nodes left free during [10,20): fits forever from 0
		{4, 0, 20},
	}
	for _, c := range cases {
		if got := p.EarliestFit(c.w, Infinity, c.nb); got != c.want {
			t.Errorf("optimized EarliestFit(%d,MaxInt64,%d) = %d, want %d", c.w, c.nb, got, c.want)
		}
		if got := ref.EarliestFit(c.w, Infinity, c.nb); got != c.want {
			t.Errorf("reference EarliestFit(%d,MaxInt64,%d) = %d, want %d", c.w, c.nb, got, c.want)
		}
	}
}

// TestResetReusesStorage: Reset must restore the fully-free state without
// allocating once the backing array is warm — the scratch-profile
// contract the conservative starter relies on.
func TestResetReusesStorage(t *testing.T) {
	p := New(16, 0)
	for i := int64(0); i < 20; i++ {
		p.Reserve(1, i*10, i*10+15)
	}
	p.Reset(16, 100)
	if p.StepCount() != 1 || p.FreeAt(100) != 16 || p.Nodes() != 16 {
		t.Fatalf("Reset left state %v", p)
	}
	allocs := testing.AllocsPerRun(50, func() {
		p.Reset(16, 0)
		p.Reserve(4, 10, 20)
		p.Reserve(4, 15, 30)
		_ = p.EarliestFit(16, 10, 0)
	})
	if allocs != 0 {
		t.Errorf("warm Reset+Reserve+EarliestFit allocates %.1f/run, want 0", allocs)
	}
}

// TestCloneInto: the allocation-free clone must produce an independent,
// identical profile.
func TestCloneInto(t *testing.T) {
	p := New(8, 0)
	p.Reserve(4, 0, 10)
	dst := New(1, 0)
	p.CloneInto(dst)
	if dst.String() != p.String() || dst.Nodes() != 8 {
		t.Fatalf("CloneInto mismatch: %v vs %v", dst, p)
	}
	dst.Reserve(4, 0, 10)
	if p.FreeAt(5) != 4 || dst.FreeAt(5) != 0 {
		t.Error("CloneInto shares step storage with the source")
	}
}

// TestPropertyReservationsNeverExceedCapacity drives random feasible
// reservations through the profile and asserts the invariant that free
// counts stay within [0, nodes] everywhere, and that EarliestFit returns
// a start where the reservation actually fits (Reserve does not panic).
func TestPropertyReservationsNeverExceedCapacity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const nodes = 16
		p := New(nodes, 0)
		for i := 0; i < 40; i++ {
			w := 1 + r.Intn(nodes)
			d := int64(1 + r.Intn(50))
			at := p.EarliestFit(w, d, int64(r.Intn(100)))
			p.Reserve(w, at, at+d)
		}
		for ts := int64(0); ts < 400; ts++ {
			if f := p.FreeAt(ts); f < 0 || f > nodes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEarliestFitIsEarliest verifies minimality: no start time
// earlier than the returned one admits the job.
func TestPropertyEarliestFitIsEarliest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const nodes = 8
		p := New(nodes, 0)
		for i := 0; i < 10; i++ {
			w := 1 + r.Intn(nodes)
			d := int64(1 + r.Intn(30))
			at := p.EarliestFit(w, d, 0)
			p.Reserve(w, at, at+d)
		}
		w := 1 + r.Intn(nodes)
		d := int64(1 + r.Intn(30))
		got := p.EarliestFit(w, d, 0)
		// Brute-force check every earlier start.
		for s := int64(0); s < got; s++ {
			ok := true
			for ts := s; ts < s+d; ts++ {
				if p.FreeAt(ts) < w {
					ok = false
					break
				}
			}
			if ok {
				return false // an earlier feasible start existed
			}
		}
		// And the returned start must itself be feasible.
		for ts := got; ts < got+d; ts++ {
			if p.FreeAt(ts) < w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
