package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jobsched/internal/sched"
)

// fingerprintWalk is the serve-session-v2 definition written out as a
// walk over every job record: the oracle the incrementally maintained
// Session.Fingerprint is held to. It shares jobDigest (the per-record
// hash), eachJob (the section orders) and the plan length with the
// production code and nothing else — not the running sums, not the header.
func fingerprintWalk(s *Session) uint64 {
	h := hashSeed
	h.str("serve-session-v2")
	h.str(s.name)
	h.int(int64(s.cfg.Nodes))
	h.str(s.cfg.Order)
	h.str(s.cfg.Start)
	h.int(int64(s.cfg.MaxPending))
	h.int(int64(s.cfg.DoneHistory))
	h.int(s.clock)
	h.int(s.nextID)
	h.int(int64(s.step.StartSeq()))
	h.int(int64(s.step.Free()))
	for _, v := range []int64{s.agg.Submitted, s.agg.Started, s.agg.Completed,
		s.agg.Expired, s.agg.Shed, s.agg.SumWait, s.agg.SumResponse} {
		h.int(v)
	}
	if size := s.sch.PlanSize(); size > 0 {
		h.int(int64(size))
	}
	retiredEver := s.agg.Completed + s.agg.Expired + s.agg.Shed
	for sec := secPending; sec < numSections; sec++ {
		var n int64
		var sum uint64
		err := s.eachJob(sec, func(st *jobState) error {
			n++
			var ordinal int64
			if sec == secRetired {
				ordinal = retiredEver - int64(len(s.retired)) + n
			}
			sum += jobDigest(st, ordinal)
			return nil
		})
		if err != nil {
			panic(err)
		}
		h.int(n)
		h.word(sum)
	}
	return h.sum()
}

// pendingWalk lists a session's pending jobs in its order policy's
// order: with the fingerprint, what a restore must reproduce.
func pendingWalk(s *Session) []string {
	var out []string
	err := s.eachJob(secPending, func(st *jobState) error {
		out = append(out, fmt.Sprintf("%d#%d", st.id, st.rank))
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// randomOp draws the next operation of a random session history: two
// submissions to one advance, as in TestRecoveryPropertyRandomOps.
func randomOp(r *rand.Rand, nodes int, clock *int64) Record {
	if r.Intn(3) < 2 {
		return Record{Op: opSubmit, Jobs: randomSpecs(r, nodes)}
	}
	*clock += int64(r.Intn(200))
	return Record{Op: opAdvance, At: *clock}
}

// gridConfigs is one session config per cell of the paper's grid, with a
// queue bound and a history ring small enough that random histories shed
// and evict.
func gridConfigs(nodes int) []Config {
	var cfgs []Config
	for _, order := range sched.GridOrders() {
		starts := sched.GridStarts()
		if order == sched.OrderGG {
			starts = []sched.StartName{sched.StartList}
		}
		for _, start := range starts {
			cfgs = append(cfgs, Config{Nodes: nodes, Order: string(order), Start: string(start),
				MaxPending: 6, DoneHistory: 8})
		}
	}
	return cfgs
}

// TestFingerprintIncrementalMatchesWalk: after every operation of a
// random history — with sheds, deadline expiries and history evictions
// all occurring — the maintained fingerprint equals the whole-walk
// recomputation, in every cell of the grid; and a session restored from
// a snapshot of any intermediate state carries the same sums and the
// same pending order.
func TestFingerprintIncrementalMatchesWalk(t *testing.T) {
	const nodes = 32
	for ci, cfg := range gridConfigs(nodes) {
		name := cfg.Order + "/" + cfg.Start
		sess, err := NewSession("prop", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(100 + ci)))
		var clock int64
		for op := 0; op < 250; op++ {
			rec := randomOp(r, nodes, &clock)
			rec.Seq = uint64(op + 1)
			if err := sess.Apply(rec); err != nil {
				t.Fatalf("%s op %d: %v", name, op, err)
			}
			if got, want := sess.Fingerprint(), fingerprintWalk(sess); got != want {
				t.Fatalf("%s op %d (%s): maintained fingerprint %016x, whole walk %016x", name, op, rec.Op, got, want)
			}
			if op%25 == 0 {
				restored, err := RestoreSession(sess.Snapshot(rec.Seq))
				if err != nil {
					t.Fatalf("%s op %d: %v", name, op, err)
				}
				if restored.sums != sess.sums {
					t.Fatalf("%s op %d: rebuilt sums %x, maintained %x", name, op, restored.sums, sess.sums)
				}
				if got, want := pendingWalk(restored), pendingWalk(sess); !slices.Equal(got, want) {
					t.Fatalf("%s op %d: restored pending order %v, was %v", name, op, got, want)
				}
			}
		}
		agg := sess.Agg()
		if evicted := agg.Completed + agg.Expired + agg.Shed - int64(len(sess.retired)); agg.Shed == 0 || agg.Expired == 0 || evicted <= 0 {
			t.Fatalf("%s: history too tame to test the transitions: %+v, %d evicted", name, agg, evicted)
		}
	}
}

// TestRestoreThenReplayMatchesUninterrupted: in every cell of the grid,
// a session snapshotted mid-history and restored makes exactly the
// decisions the uninterrupted session makes — after replaying the same
// operation suffix on both, the fingerprints and the pending orders are
// equal. A PSRS/SMART restore that loses the plan epoch fails here.
func TestRestoreThenReplayMatchesUninterrupted(t *testing.T) {
	const nodes, prefix, suffix = 32, 150, 150
	for ci, cfg := range gridConfigs(nodes) {
		name := cfg.Order + "/" + cfg.Start
		midPlan := 0 // seeds whose snapshot holds a ranked pending job
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(1000*int64(ci) + seed))
			var clock int64
			ops := make([]Record, prefix+suffix)
			for i := range ops {
				ops[i] = randomOp(r, nodes, &clock)
				ops[i].Seq = uint64(i + 1)
			}
			orig, err := NewSession("replay", cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range ops[:prefix] {
				if err := orig.Apply(rec); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
			}
			snap := orig.Snapshot(prefix)
			if len(snap.Pending) > 0 && snap.Pending[0].Rank > 0 {
				midPlan++
			}
			restored, err := RestoreSession(snap)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for _, rec := range ops[prefix:] {
				for _, sess := range []*Session{orig, restored} {
					if err := sess.Apply(rec); err != nil {
						t.Fatalf("%s seed %d op %d: %v", name, seed, rec.Seq, err)
					}
				}
			}
			if got, want := restored.Fingerprint(), orig.Fingerprint(); got != want {
				t.Fatalf("%s seed %d: restored session replays to %016x, uninterrupted %016x", name, seed, got, want)
			}
			if got, want := pendingWalk(restored), pendingWalk(orig); !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: restored pending order %v, uninterrupted %v", name, seed, got, want)
			}
		}
		plans := cfg.Order != string(sched.OrderFCFS) && cfg.Order != string(sched.OrderGG)
		if plans != (midPlan > 0) {
			t.Fatalf("%s: %d of 4 snapshots taken mid-plan", name, midPlan)
		}
	}
}

// TestFingerprintConstantCost: the fingerprint of a 50 000-job session
// allocates nothing — with the walk gone there is nothing left that
// could.
func TestFingerprintConstantCost(t *testing.T) {
	sess, err := NewSession("deep", Config{Nodes: 64, Start: string(sched.StartList), MaxPending: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, 10_000)
	for i := range specs {
		specs[i] = JobSpec{Name: fmt.Sprintf("j%d", i), User: "u", Nodes: 64, Estimate: 100}
	}
	for batch := 0; batch < 5; batch++ {
		mustSubmit(t, sess, specs)
	}
	if p, _ := sess.Counts(); p < 49_999 {
		t.Fatalf("only %d jobs pending", p)
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink += sess.Fingerprint() }); allocs != 0 {
		t.Fatalf("Fingerprint allocates %v times per call", allocs)
	}
	if sink == 0 || sess.Fingerprint() != fingerprintWalk(sess) {
		t.Fatal("fingerprint of the deep session is wrong")
	}
}
