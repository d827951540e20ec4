package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/sched"
)

// fingerprintWalk is the serve-session-v2 definition written out as a
// walk over every job record: the oracle the incrementally maintained
// Session.Fingerprint is held to. It shares jobDigest (the per-record
// hash) and eachJob (the section orders) with the production code and
// nothing else — not the running sums, not the header.
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
				MaxPending: 6, DoneHistory: 8, AllowUnstable: true})
		}
	}
	return cfgs
}

// TestFingerprintIncrementalMatchesWalk: after every operation of a
// random history — with sheds, deadline expiries and history evictions
// all occurring — the maintained fingerprint equals the whole-walk
// recomputation, in every cell of the grid; and a session restored from
// a snapshot of any intermediate state carries the same sums.
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
			}
		}
		agg := sess.Agg()
		if evicted := agg.Completed + agg.Expired + agg.Shed - int64(len(sess.retired)); agg.Shed == 0 || agg.Expired == 0 || evicted <= 0 {
			t.Fatalf("%s: history too tame to test the transitions: %+v, %d evicted", name, agg, evicted)
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
