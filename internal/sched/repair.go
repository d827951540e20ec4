package sched

import (
	"math"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
)

// repair is the state of a conservative pass that repairs the kept
// profile after early completions instead of rebuilding it (DESIGN.md
// §11 "Kept profiles"). The running jobs in gone left before their
// estimated ends, the latest of which is until; prepare hands their
// reservations' rest, [now, EstEnd), back to the kept profile. Until
// some kept job moves, the rebuild's profile at kept job i is the kept
// one plus that released capacity, which lies in [now, until). So a kept
// fit f either stays, or moves to the earliest start below min(f, until)
// that fits on the rebuild's profile at i; moves answers which.
type repair struct {
	until int64
	gone  []sim.Running
	// running and machine are the pass's; test is the second scratch
	// profile, reset to running's reservations on the pass's first test
	// (ready). Before each test it holds every kept reservation ahead of
	// the tested job that starts early enough to matter to it (onTest of
	// them); the others wait in held, a min-heap by start.
	running []sim.Running
	machine int
	test    profile.Kernel
	ready   bool
	onTest  int
	held    []heldRes
	// minEst[w], for w up to hi, is the least estimate of a job at most w
	// wide whose test this pass found no start before until
	// (math.MaxInt64: none). hi is the widest such job's width, so
	// minEst[hi] holds for every wider width too, and the frontier costs
	// the widths the pass records, not what the machine has. lo is the
	// narrowest width set: minEst is math.MaxInt64 outside [lo, hi].
	minEst []int64
	lo, hi int
}

// heldRes is a kept reservation waiting to be reserved on the test
// profile.
type heldRes struct {
	nodes      int
	start, end int64
}

// begin opens a repair pass.
func (rp *repair) begin(running []sim.Running, until int64, machineNodes int) {
	rp.until = until
	rp.running, rp.machine = running, machineNodes
	rp.ready, rp.onTest = false, 0
	rp.held = rp.held[:0]
	if len(rp.minEst) != machineNodes+1 {
		rp.minEst = make([]int64, machineNodes+1)
		rp.lo, rp.hi = 0, machineNodes
	}
	for w := rp.lo; w <= rp.hi; w++ {
		rp.minEst[w] = math.MaxInt64
	}
	rp.lo, rp.hi = len(rp.minEst), 0
}

// hold records the reservation of a kept job that stays.
func (rp *repair) hold(j *job.Job, at int64) {
	h := append(rp.held, heldRes{nodes: j.Nodes, start: at, end: job.AddSat(at, j.Estimate)})
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].start <= h[i].start {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	rp.held = h
}

// reserveBefore moves every held reservation starting before t onto the
// test profile.
func (rp *repair) reserveBefore(t int64) {
	h := rp.held
	for len(h) > 0 && h[0].start < t {
		r := h[0]
		rp.test.Reserve(r.nodes, r.start, r.end)
		rp.onTest++
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].start < h[c].start {
				c++
			}
			if h[i].start <= h[c].start {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	rp.held = h
}

// moves reports whether the rebuild gives kept job j, kept at fit f, an
// earlier start. The test profile equals the rebuild's profile at j on
// every window starting before until, so a plain EarliestFit on it
// answers: below min(f, until) it is the rebuild's fit, anything else
// means j stays. The test profile only loses capacity during a pass, so
// a job at most as wide and as long as one that found no start before
// until cannot find one either: such a test is skipped.
func (s *ConservativeStarter) moves(j *job.Job, f, now int64) bool {
	rp := &s.rep
	if f == now || rp.minEst[min(j.Nodes, rp.hi)] <= j.Estimate {
		return false
	}
	if !rp.ready {
		rp.test = ensureScratch(rp.test, s.factory, s.stats, rp.machine, now)
		for _, r := range rp.running {
			rp.test.Reserve(r.Job.Nodes, now, r.EstEnd)
		}
		rp.ready = true
	}
	rp.reserveBefore(job.AddSat(rp.until, j.Estimate))
	t := rp.test.EarliestFit(j.Nodes, j.Estimate, now)
	if t < min(f, rp.until) {
		return true
	}
	if t >= rp.until {
		m, w, hi := rp.minEst, j.Nodes, rp.hi
		if w > hi {
			// Widths in (hi, w] share minEst[hi]; with nothing recorded
			// yet they are math.MaxInt64 already.
			for x := hi + 1; rp.lo <= hi && x <= w; x++ {
				m[x] = m[hi]
			}
			hi, rp.hi = w, w
		}
		for ; w <= hi && m[w] > j.Estimate; w++ {
			m[w] = j.Estimate
		}
		rp.lo = min(rp.lo, j.Nodes)
	}
	return false
}

// repairKept tests the kept jobs in order, holding the reservations of
// those that stay, and cuts the kept prefix at the first one the
// rebuild places earlier. It reports whether one did. The kept profile
// has the departed jobs' capacity back already.
func (s *ConservativeStarter) repairKept(now int64, running []sim.Running, until int64, machineNodes int) bool {
	rp := &s.rep
	rp.begin(running, until, machineNodes)
	kp := &s.keep
	for u, j := range kp.jobs {
		f := kp.fits[u]
		if s.moves(j, f, now) {
			s.cut(u)
			return true
		}
		if f < profile.Infinity {
			rp.hold(j, f)
		}
	}
	return false
}

// cut ends a repair at kept position u, whose job the rebuild places
// earlier: from there on the pass is a rebuild, so the kept reservations
// from u on leave the profile, which then holds what the rebuild's holds
// when it places job u, and the kept prefix ends before u. Either they
// are released from the kept profile, or the test profile gets the rest
// of the held reservations (all ahead of u) and replaces it, dropping
// the kept profile's dead history too, whichever costs fewer kernel
// operations.
func (s *ConservativeStarter) cut(u int) {
	rp := &s.rep
	kp := &s.keep
	kept := 0
	for _, t := range kp.fits[u:] {
		if t < profile.Infinity {
			kept++
		}
	}
	if len(rp.held) < kept {
		rp.reserveBefore(profile.Infinity)
		s.scratch, rp.test = rp.test, s.scratch
		kp.reserved = len(rp.running) + rp.onTest
	} else {
		for q := u; q < len(kp.fits); q++ {
			if t := kp.fits[q]; t < profile.Infinity {
				s.scratch.Release(kp.jobs[q].Nodes, t, job.AddSat(t, kp.jobs[q].Estimate))
				kp.reserved--
			}
		}
	}
	kp.fits, kp.jobs = kp.fits[:u], kp.jobs[:u]
}
