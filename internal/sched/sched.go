// Package sched implements the scheduling algorithms of the paper's
// Section 5 as compositions of an order policy and a start policy.
//
// The paper evaluates a grid: {FCFS, PSRS, SMART-FFIA, SMART-NFIW,
// Garey&Graham} × {plain list scheduling, conservative backfilling, EASY
// backfilling}. The order policy maintains the waiting queue in start
// priority order (SMART and PSRS are off-line algorithms adapted on-line:
// they only *reorder* the queue and are recomputed lazily); the start
// policy decides which waiting jobs start at the current instant.
//
// There is one pass protocol. The order policy keeps the queue in a
// queue.Index; the start policy's PickMany computes a whole pass against
// it and returns the jobs to start, in start order. A wrapper that
// restricts which jobs may start (ReservedStarter, the course windows of
// internal/policy) hides the inadmissible jobs in the index for the
// duration of one inner decision (Filter) — the index respects hidden
// entries in every query, so the inner policy decides over exactly the
// admissible queue. The paper's literal pick-one-until-nil loop over an
// ordered slice exists only in the tests, as the reference every
// production pass is compared against (DESIGN.md §11).
package sched

import (
	"fmt"
	"math"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Orderer maintains the waiting queue in start-priority order. The queue
// is stored once, in a queue.Index owned by the order policy; start
// policies read it through OrderedIter. Removals never reorder the
// remaining jobs of an indexed order; the only instability is a replan
// that rebuilds it (SMART, PSRS), and BatchWindow bounds a pass so that
// it ends exactly where the paper's pick-one loop would have re-checked
// the replan trigger.
type Orderer interface {
	// Name identifies the order policy.
	Name() string
	// Push adds a newly submitted job.
	Push(j *job.Job, now int64)
	// Remove takes a started job out of the queue.
	Remove(j *job.Job, now int64)
	// Len returns the number of waiting jobs.
	Len() int
	// OrderedIter returns the indexed view of the current priority order,
	// replanning first if the order policy's trigger has fired. The index
	// is owned by the order policy; callers must restore any pass-local
	// hiding before returning control.
	OrderedIter(now int64) *queue.Index
	// Walk returns a cursor over the order as it stands, without the
	// replan check: what a snapshot records, never what a pass decides
	// over.
	Walk() queue.Cursor
	// BatchWindow returns how many consecutive picks of the current order
	// are provably replan-free (≥ 1 when the queue is nonempty). Call
	// after OrderedIter — i.e. against a fresh plan. An order that no
	// removal can ever rebuild (FCFS, Garey&Graham) reports
	// UnlimitedWindow.
	BatchWindow() int
}

// UnlimitedWindow is the BatchWindow of a removal-stable order.
const UnlimitedWindow = math.MaxInt

// Starter decides which waiting jobs start at the current instant. It
// computes a whole scheduling pass at once against the order policy's
// index: PickMany returns, in start order, exactly the jobs the paper's
// loop — pick one job, start it, decide again until nothing starts —
// would have started at `now`, while sharing the expensive per-pass state
// (the reservation profile rebuild) across the pass and pruning the walk
// by width in O(log Q). The literal loop survives as the test-only
// reference every PickMany is compared against.
type Starter interface {
	// Name identifies the start policy.
	Name() string
	// PickMany returns the jobs startable now, in start order, at most
	// limit of them (the order's batch window). machineNodes is the total
	// machine size; free the currently unassigned nodes; running the
	// executing jobs with their *estimated* completions. A pass is
	// complete: a result shorter than limit means nothing else can start
	// until the state changes. An implementation that hides jobs in the
	// index must UnhideAll before it returns. The returned slice is only
	// valid until the next PickMany call.
	PickMany(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job
}

// ProfileFactory constructs a scratch availability profile. The default
// (nil) builds profile.Tree, the only kernel production code builds;
// tests inject profile.NewReference (the brute-force oracle) through
// Config.ProfileFactory to pin backend-independence of whole schedules,
// and the benchmark injects a timed Tree.
type ProfileFactory func(nodes int, from int64) profile.Kernel

// makeScratch applies the factory default.
func makeScratch(f ProfileFactory, nodes int, from int64) profile.Kernel {
	if f == nil {
		return profile.NewTree(nodes, from)
	}
	return f(nodes, from)
}

// Composite combines an Orderer and a Starter into a sim.Scheduler.
type Composite struct {
	order   Orderer
	start   Starter
	machine int
	// decider is the start policy's sim.DecisionExplainer view, resolved
	// once at composition (nil when the policy cannot classify starts).
	decider sim.DecisionExplainer
	// interrupt is the cooperative cancellation hook (Interruptible),
	// polled between and inside passes; nil = never interrupt.
	interrupt func() bool
	// passDone is the predicted post-start state of the last fruitful
	// pass: when the engine's follow-up Startable call matches it
	// exactly, the pass was complete and the confirmation walk is skipped
	// (see Startable).
	passDone passMemo
}

// passMemo is the state signature a completed pass predicts for
// the engine's confirmation call.
type passMemo struct {
	valid      bool
	now        int64
	free       int
	queueLen   int
	runningLen int
}

var _ sim.Scheduler = (*Composite)(nil)
var _ sim.DecisionExplainer = (*Composite)(nil)

// Compose builds a scheduler from an order and a start policy for a
// machine of the given size.
func Compose(order Orderer, start Starter, machineNodes int) *Composite {
	if machineNodes <= 0 {
		panic("sched: machine must have at least one node")
	}
	c := &Composite{order: order, start: start, machine: machineNodes}
	c.decider, _ = start.(sim.DecisionExplainer)
	return c
}

// Name returns "<order>/<starter>", e.g. "FCFS/EASY-Backfilling".
func (c *Composite) Name() string {
	return c.order.Name() + "/" + c.start.Name()
}

// Submit implements sim.Scheduler.
func (c *Composite) Submit(j *job.Job, now int64) { c.order.Push(j, now) }

// JobStarted implements sim.Scheduler.
func (c *Composite) JobStarted(j *job.Job, now int64) { c.order.Remove(j, now) }

// JobFinished implements sim.Scheduler. Order policies in this package do
// not react to completions (reservation state is rebuilt by the starters).
func (c *Composite) JobFinished(j *job.Job, now int64) {}

// Startable implements sim.Scheduler: the start policy computes the
// whole pass in one call against the order policy's queue.Index,
// truncated to the order's replan-free window; the engine's follow-up
// call (after starting the batch) finds nothing new and terminates the
// pass.
func (c *Composite) Startable(now int64, free int, running []sim.Running) []*job.Job {
	if c.order.Len() == 0 || free <= 0 {
		return nil
	}
	ix := c.order.OrderedIter(now)
	// A pass is complete: PickMany returns every job startable at `now`
	// (the property the equivalence tests pin), so the engine's follow-up
	// Startable call — its loop-termination check — would walk the whole
	// queue only to find nothing. If the state is
	// exactly the one the last fruitful pass predicted (same instant,
	// picked jobs moved from queue to running, their nodes debited),
	// answer it without the walk. Any other intervening change (a
	// same-instant outage, resubmit, or kill) breaks the signature and
	// forces the full pass. A replanning order's follow-up OrderedIter is
	// itself the replan-trigger check and has already run at exactly
	// the sequential protocol's point — the memo (set only when the
	// pass ended below the batch window, so its removals provably left
	// the trigger cold) skips just the fruitless walk behind it.
	if m := &c.passDone; m.valid {
		m.valid = false
		if now == m.now && free == m.free &&
			ix.Len() == m.queueLen && len(running) == m.runningLen {
			return nil
		}
	}
	limit := c.order.BatchWindow()
	picked := c.start.PickMany(ix, now, free, running, c.machine, limit)
	// An interrupted pass may have been abandoned mid-walk: its picks
	// are a prefix of the full pass, so the completion memo must not
	// claim the follow-up call needs no walk.
	if len(picked) > 0 && len(picked) < limit && !stopNow(c.interrupt) {
		c.passDone = c.memoAfter(now, free, ix.Len(), len(running), picked)
	}
	return picked
}

// memoAfter predicts the post-start state signature of a fruitful pass.
func (c *Composite) memoAfter(now int64, free, queueLen, runningLen int, picked []*job.Job) passMemo {
	width := 0
	for _, j := range picked {
		width += j.Nodes
	}
	return passMemo{valid: true, now: now, free: free - width,
		queueLen: queueLen - len(picked), runningLen: runningLen + len(picked)}
}

// QueueLen implements sim.Scheduler.
func (c *Composite) QueueLen() int { return c.order.Len() }

// Waiting returns a cursor over the waiting jobs in the current order
// without replanning (Orderer.Walk). It is invalidated by the next
// submission, start or pass.
func (c *Composite) Waiting() queue.Cursor { return c.order.Walk() }

// Recomputations reports the order policy's plan epochs so far
// (Planner), 0 for an order without a plan (FCFS, Garey&Graham).
func (c *Composite) Recomputations() int {
	if p, ok := c.order.(Planner); ok {
		return p.Recomputations()
	}
	return 0
}

// PlanSize reports the order policy's plan length when computed
// (Planner), 0 for an order without a plan.
func (c *Composite) PlanSize() int {
	if p, ok := c.order.(Planner); ok {
		return p.PlanSize()
	}
	return 0
}

// RestorePlan restores a plan epoch into an empty composite
// (Planner.RestorePlan); an order without a plan accepts only the empty
// one.
func (c *Composite) RestorePlan(size int, plan []*job.Job) error {
	if p, ok := c.order.(Planner); ok {
		return p.RestorePlan(size, plan)
	}
	if size != 0 || len(plan) != 0 {
		return fmt.Errorf("sched: order %s keeps no plan", c.order.Name())
	}
	return nil
}

// LastStartDecision implements sim.DecisionExplainer by delegating to the
// start policy.
func (c *Composite) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	if c.decider == nil {
		return telemetry.Decision{}, false
	}
	return c.decider.LastStartDecision(j)
}

// Instrument attaches telemetry hooks to the start and order policies
// (no-op for policies that are not Instrumented — order policies accept
// the queue-index op counter). sched.New calls it with Config.Hooks;
// hand-composed schedulers may call it directly.
func (c *Composite) Instrument(h telemetry.Hooks) {
	if in, ok := c.start.(Instrumented); ok {
		in.Instrument(h)
	}
	if in, ok := c.order.(Instrumented); ok {
		in.Instrument(h)
	}
}

// Announce hands announced maintenance windows to the start policy (no-op
// when the policy is not FailureAware — plain list scheduling and
// Garey&Graham have no projection to adjust; the engine still enforces
// the capacity loss either way). sched.New calls it with Config.Announced;
// hand-composed schedulers may call it directly.
func (c *Composite) Announce(windows []sim.Failure) {
	if fa, ok := c.start.(FailureAware); ok {
		fa.Announce(windows)
	}
}

// WrapStarter returns a new Composite whose start policy is wrap(old
// start policy) — used to layer cross-cutting admission rules (advance
// reservations, policy windows) over any grid algorithm.
func WrapStarter(c *Composite, wrap func(Starter) Starter) *Composite {
	return Compose(c.order, wrap(c.start), c.machine)
}

// OrderName selects an order policy.
type OrderName string

// Order policy names as they appear in the paper's tables.
const (
	OrderFCFS      OrderName = "FCFS"
	OrderPSRS      OrderName = "PSRS"
	OrderSMARTFFIA OrderName = "SMART-FFIA"
	OrderSMARTNFIW OrderName = "SMART-NFIW"
	OrderGG        OrderName = "Garey&Graham"
)

// StartName selects a start policy.
type StartName string

// Start policy names as they appear in the paper's tables.
const (
	StartList         StartName = "List"
	StartConservative StartName = "Backfilling"
	StartEASY         StartName = "EASY-Backfilling"
)

// Config parameterizes algorithm construction.
type Config struct {
	// MachineNodes is the size of the batch partition.
	MachineNodes int
	// Weight is the scheduling weight used by SMART and PSRS. Defaults to
	// job.UnitWeight (the unweighted objective); use job.AreaWeight for
	// the weighted objective.
	Weight job.WeightFunc
	// SmartGamma is SMART's geometric bin factor (paper: 2).
	SmartGamma float64
	// RecomputeRatio triggers SMART/PSRS replanning once this fraction of
	// the last plan has started (paper: 2/3).
	RecomputeRatio float64
	// MaxBackfillDepth bounds how many queued jobs the conservative
	// starter walks per pass (0 = unlimited, the paper's semantics).
	// Production installations bound this for tractability; an ablation
	// bench measures the effect.
	MaxBackfillDepth int
	// Hooks attaches the telemetry layer (decision-trace recorder and
	// availability-profile op counters) to the start policy. The zero
	// value disables telemetry at the cost of one branch per decision
	// point.
	Hooks telemetry.Hooks
	// Announced lists maintenance windows known to the scheduler in
	// advance (faults.Plan.Announced): failure-aware start policies
	// (conservative and EASY backfilling) reserve around them instead of
	// starting jobs the drain would abort. Empty keeps every policy's
	// historical behavior bit-for-bit.
	Announced []sim.Failure
	// ProfileFactory selects the scratch availability-profile backend for
	// profile-backed start policies. Nil uses profile.Tree; differential
	// tests inject the brute-force reference to pin that whole schedules
	// are backend-independent.
	ProfileFactory ProfileFactory
}

func (c Config) withDefaults() Config {
	if c.Weight == nil {
		c.Weight = job.UnitWeight
	}
	if c.SmartGamma == 0 {
		c.SmartGamma = 2
	}
	if c.RecomputeRatio == 0 {
		c.RecomputeRatio = 2.0 / 3.0
	}
	return c
}

// New builds one cell of the paper's algorithm grid. Garey&Graham ignores
// a valid start policy argument (backfilling "will be of no benefit for
// this method"): it always uses its own free-for-all start policy. An
// unknown order or start name is an error for every cell.
func New(order OrderName, start StartName, cfg Config) (*Composite, error) {
	cfg = cfg.withDefaults()
	if cfg.MachineNodes <= 0 {
		return nil, fmt.Errorf("sched: config needs MachineNodes > 0")
	}

	var ord Orderer
	switch order {
	case OrderFCFS, OrderGG:
		ord = NewFCFSOrder(string(order))
	case OrderPSRS:
		ord = NewPSRSOrder(cfg)
	case OrderSMARTFFIA:
		ord = NewSMARTOrder(FFIA, cfg)
	case OrderSMARTNFIW:
		ord = NewSMARTOrder(NFIW, cfg)
	default:
		return nil, fmt.Errorf("sched: unknown order policy %q", order)
	}

	var st Starter
	switch start {
	case StartList:
		st = NewListStarter()
	case StartConservative:
		cs := NewConservativeStarter(cfg.MaxBackfillDepth)
		cs.factory = cfg.ProfileFactory
		st = cs
	case StartEASY:
		es := NewEASYStarter()
		es.factory = cfg.ProfileFactory
		st = es
	default:
		return nil, fmt.Errorf("sched: unknown start policy %q", start)
	}
	if order == OrderGG {
		// The name was validated above; the policy it names is not used.
		st = NewGareyGrahamStarter()
	}

	c := Compose(ord, st, cfg.MachineNodes)
	c.Instrument(cfg.Hooks)
	if len(cfg.Announced) > 0 {
		c.Announce(cfg.Announced)
	}
	return c, nil
}

// GridOrders returns the order policies of the paper's tables, in row order.
func GridOrders() []OrderName {
	return []OrderName{OrderFCFS, OrderPSRS, OrderSMARTFFIA, OrderSMARTNFIW, OrderGG}
}

// GridStarts returns the start policies of the paper's tables, in column order.
func GridStarts() []StartName {
	return []StartName{StartList, StartConservative, StartEASY}
}
