package main

import (
	"time"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
)

// sampleEvery is how many calls of a decorated layer share one kept
// span. Totals and call counts are exact for every call; only the span
// file is sampled, since a million-job run makes tens of millions of
// calls.
const sampleEvery = 1024

// layerTimes accumulates what the decorators below measure around the
// public seams of one simulation: the arrival source, the allocation
// sink, the scheduler and the profile kernel under it.
type layerTimes struct {
	tr     *tracer
	parent int   // span of the simulation the calls belong to
	op     int64 // its operation id

	calls int64 // all decorated calls, for span sampling
	cur   int   // open sampled scheduler span, parent of kernel spans

	next, emit                durations
	submit, startable, finish durations
	started, kernel           durations
	starts                    int64 // jobs returned by Startable
}

// timed runs f, adds its duration to d and keeps every sampleEvery-th
// call as a span under parent.
func (lt *layerTimes) timed(d *durations, name string, parent int, f func()) {
	lt.calls++
	t0 := time.Now()
	if lt.calls%sampleEvery == 0 {
		id := lt.tr.begin(name, parent, lt.op)
		f()
		lt.tr.end(id)
	} else {
		f()
	}
	d.add(int64(time.Since(t0)))
}

type timedSource struct {
	inner sim.Source
	lt    *layerTimes
}

func (s *timedSource) Next() (j *job.Job, err error) {
	s.lt.timed(&s.lt.next, "workload.next", s.lt.parent, func() { j, err = s.inner.Next() })
	return j, err
}

type timedSink struct {
	inner sim.Sink
	lt    *layerTimes
}

func (s *timedSink) Emit(a sim.Allocation) (err error) {
	s.lt.timed(&s.lt.emit, "sim.sink.emit", s.lt.parent, func() { err = s.inner.Emit(a) })
	return err
}

// timedScheduler decorates a sim.Scheduler. It deliberately hides the
// optional interfaces of sched.Composite (decision explainer, interrupt
// hook): the benchmark sets neither a recorder nor an interrupt.
type timedScheduler struct {
	inner sim.Scheduler
	lt    *layerTimes
}

func (s *timedScheduler) Name() string  { return s.inner.Name() }
func (s *timedScheduler) QueueLen() int { return s.inner.QueueLen() }

// schedCall times one scheduler method; a sampled call becomes the
// parent of the kernel spans recorded while it runs.
func (s *timedScheduler) schedCall(d *durations, name string, f func()) {
	lt := s.lt
	lt.calls++
	sampled := lt.calls%sampleEvery == 0
	t0 := time.Now()
	if sampled {
		lt.cur = lt.tr.begin(name, lt.parent, lt.op)
	}
	f()
	if sampled {
		lt.tr.end(lt.cur)
		lt.cur = 0
	}
	d.add(int64(time.Since(t0)))
}

func (s *timedScheduler) Submit(j *job.Job, now int64) {
	s.schedCall(&s.lt.submit, "sched.submit", func() { s.inner.Submit(j, now) })
}

func (s *timedScheduler) JobStarted(j *job.Job, now int64) {
	s.schedCall(&s.lt.started, "sched.started", func() { s.inner.JobStarted(j, now) })
}

func (s *timedScheduler) JobFinished(j *job.Job, now int64) {
	s.schedCall(&s.lt.finish, "sched.finish", func() { s.inner.JobFinished(j, now) })
}

func (s *timedScheduler) Startable(now int64, free int, running []sim.Running) (out []*job.Job) {
	s.schedCall(&s.lt.startable, "sched.startable", func() { out = s.inner.Startable(now, free, running) })
	s.lt.starts += int64(len(out))
	return out
}

// timerCost is what decorating a call costs, calibrated once per traced
// run on empty calls: inner is the part that lands inside the measured
// duration (one clock read), outer the part charged to the caller (the
// other clock read, the closure, the bookkeeping). Layer self times are
// corrected by them; raw medians such as sched.startable_ns are not.
type timerCost struct{ inner, outer float64 }

// timerCosts are calibrated per decorator, since the kernel's is called
// tens of millions of times and a few nanoseconds of error there would
// swamp the scheduler's self time.
type timerCosts struct{ edge, sched, kernel timerCost }

func calibrateTimers() timerCosts {
	lt := &layerTimes{tr: newTracer()}
	calibrate := func(call func(d *durations)) timerCost {
		// A full sample buffer: the steady state of a long run.
		d := &durations{ns: make([]uint32, durCap)}
		const n = 500_000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			call(d)
		}
		total := float64(time.Since(t0)) / n
		inner := float64(d.total) / n
		return timerCost{inner: inner, outer: total - inner}
	}
	s := &timedScheduler{lt: lt}
	k := &timedKernel{lt: lt}
	var c timerCosts
	c.edge = calibrate(func(d *durations) { lt.timed(d, "calibrate", 0, func() {}) })
	c.sched = calibrate(func(d *durations) { s.schedCall(d, "calibrate", func() {}) })
	lt.kernel.ns = make([]uint32, durCap)
	c.kernel = calibrate(func(d *durations) {
		before := lt.kernel.total
		k.op("calibrate", func() {})
		d.total += lt.kernel.total - before
	})
	return c
}

// selfTimes splits a traced round's wall time between engine, scheduler
// and kernel, in nanoseconds, net of the decorators' own cost.
func (lt *layerTimes) selfTimes(wallNS float64, tc timerCosts) (engine, sched, kernel float64) {
	sum := func(ds ...*durations) (total, calls float64) {
		for _, d := range ds {
			total += float64(d.total)
			calls += float64(d.count)
		}
		return total, calls
	}
	edgeNS, edgeCalls := sum(&lt.next, &lt.emit)
	schedNS, schedCalls := sum(&lt.submit, &lt.startable, &lt.finish, &lt.started)
	kernelNS, kernelCalls := sum(&lt.kernel)
	engine = wallNS - edgeNS - schedNS - edgeCalls*tc.edge.outer - schedCalls*tc.sched.outer
	sched = schedNS - schedCalls*tc.sched.inner - kernelNS - kernelCalls*tc.kernel.outer
	kernel = kernelNS - kernelCalls*tc.kernel.inner
	return engine, sched, kernel
}

// timedKernel decorates the profile kernel a start policy builds
// through sched.Config.ProfileFactory.
type timedKernel struct {
	inner profile.Kernel
	lt    *layerTimes
}

func timedTreeFactory(lt *layerTimes) sched.ProfileFactory {
	return func(nodes int, from int64) profile.Kernel {
		return &timedKernel{inner: profile.NewTree(nodes, from), lt: lt}
	}
}

func (k *timedKernel) op(name string, f func()) {
	lt := k.lt
	t0 := time.Now()
	if lt.cur != 0 {
		id := lt.tr.begin(name, lt.cur, lt.op)
		f()
		lt.tr.end(id)
	} else {
		f()
	}
	lt.kernel.add(int64(time.Since(t0)))
}

func (k *timedKernel) Nodes() int { return k.inner.Nodes() }
func (k *timedKernel) Reset(nodes int, from int64) {
	k.op("profile.reset", func() { k.inner.Reset(nodes, from) })
}
func (k *timedKernel) FreeAt(t int64) (n int) {
	k.op("profile.free_at", func() { n = k.inner.FreeAt(t) })
	return n
}
func (k *timedKernel) MinFree(start, end int64) (n int) {
	k.op("profile.min_free", func() { n = k.inner.MinFree(start, end) })
	return n
}
func (k *timedKernel) EarliestFit(nodes int, duration, notBefore int64) (at int64) {
	k.op("profile.earliest_fit", func() { at = k.inner.EarliestFit(nodes, duration, notBefore) })
	return at
}
func (k *timedKernel) Reserve(nodes int, start, end int64) {
	k.op("profile.reserve", func() { k.inner.Reserve(nodes, start, end) })
}
func (k *timedKernel) ReserveClamped(nodes int, start, end int64) {
	k.op("profile.reserve", func() { k.inner.ReserveClamped(nodes, start, end) })
}
func (k *timedKernel) Release(nodes int, start, end int64) {
	k.op("profile.release", func() { k.inner.Release(nodes, start, end) })
}
func (k *timedKernel) BeginPass(now int64) {
	k.op("profile.begin_pass", func() { k.inner.BeginPass(now) })
}
func (k *timedKernel) StartMany(reqs []profile.StartReq, starts []int64) (out []int64) {
	k.op("profile.start_many", func() { out = k.inner.StartMany(reqs, starts) })
	return out
}
func (k *timedKernel) CommitPass() {
	k.op("profile.commit_pass", func() { k.inner.CommitPass() })
}
func (k *timedKernel) StepCount() int            { return k.inner.StepCount() }
func (k *timedKernel) String() string            { return k.inner.String() }
func (k *timedKernel) SetStats(s *profile.Stats) { k.inner.SetStats(s) }
