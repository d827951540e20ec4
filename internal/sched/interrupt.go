package sched

import "jobsched/internal/job"

// Interruptible is implemented by policies that accept a cooperative
// cancellation hook and poll it inside their batched scheduling passes.
// The engine's per-event Interrupt poll bounds the latency *between*
// passes; on a deep backlog a single pass (one reservation walk over a
// 100k-job queue) can itself run for a long time, so the hook is
// threaded into the walk loops too. The hook must be cheap and safe for
// concurrent use with whatever sets it (typically a context check or an
// atomic flag).
type Interruptible interface {
	// SetInterrupt installs the hook (nil = never interrupt). A pass that
	// observes the hook true abandons its remaining work and returns the
	// picks made so far; the caller is expected to discard the run.
	SetInterrupt(f func() bool)
}

// interruptStride bounds the work between cancellation polls in tight
// scan loops: cheap O(1) iterations poll every interruptStride-th step,
// so the hook costs nothing on the hot path while the response latency
// stays bounded by a few hundred queue entries. Loops whose every
// iteration already pays profile queries poll more often via stopNow.
const interruptStride = 64

// stopNow polls an interrupt hook (nil = never interrupt).
func stopNow(f func() bool) bool { return f != nil && f() }

// stopAt is the strided poll for scan loops: i is the loop counter.
// Polling at i == 0 makes even short walks observe a raised hook, which
// the promptness tests rely on.
func stopAt(f func() bool, i int) bool {
	return f != nil && i%interruptStride == 0 && f()
}

var _ Interruptible = (*Composite)(nil)

// SetInterrupt implements Interruptible: the hook is polled between and
// inside batched passes. The sim engine installs Options.Interrupt here
// automatically (structurally, to avoid an import cycle); long-running
// services install a per-request context check.
func (c *Composite) SetInterrupt(f func() bool) {
	c.interrupt = f
	forwardInterrupt(c.start, f)
	forwardInterrupt(c.order, f)
}

// forwardInterrupt installs the hook on a wrapped policy if it polls one.
// Every wrapper forwards, so the hook reaches the walk loops however
// deeply the start policy that owns them is nested.
func forwardInterrupt(policy any, f func() bool) {
	if ii, ok := policy.(Interruptible); ok {
		ii.SetInterrupt(f)
	}
}

// Withdraw removes a still-waiting job from the queue without starting
// it — deadline expiry or client cancellation in the service layer. The
// pass memo is dropped: the queue changed outside the started-jobs
// accounting the memo predicts, so the next pass must walk for real.
func (c *Composite) Withdraw(j *job.Job, now int64) {
	c.order.Remove(j, now)
	c.passDone.valid = false
}
