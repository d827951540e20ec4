// Package policy implements the paper's Section 2 methodology on the
// chemistry-department scenario of Example 1: conflicting policy rules
// ("drug design jobs as soon as possible" vs. "machine time for the
// theoretical chemistry lab course"), a two-criteria schedule space, the
// Pareto-optimal filtering and partial ordering of Figure 1, and the
// on-line versus off-line achievable regions of Figure 2.
package policy

import (
	"fmt"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/queue"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/stats"
	"jobsched/internal/trace"
)

// Session is one scheduled slot of the theoretical chemistry lab course
// (Example 1 rule 5 / Example 4): at time At the course needs Nodes free
// nodes.
type Session struct {
	At    int64
	Nodes int
}

// Scenario is the Example 1 setting: a departmental machine, a mixed
// workload of drug-design and general university jobs, and the course
// timetable.
type Scenario struct {
	Machine  sim.Machine
	Jobs     []*job.Job
	Sessions []Session
}

// Class labels of the scenario's jobs.
const (
	ClassDrug = "drug-design"
	ClassUni  = "university"
)

// ChemistryScenario generates a deterministic Example 1 workload over
// the given number of weekdays: drug-design jobs submitted around the
// clock, university jobs during working hours, and one course session
// per day at 10am needing half the machine (Example 4's rule, relaxed
// from the full machine so the trade-off space is non-degenerate).
func ChemistryScenario(seed int64, days int) *Scenario {
	if days <= 0 {
		panic("policy: need at least one day")
	}
	const nodes = 64
	rDrug := stats.Split(seed, 1)
	rUni := stats.Split(seed, 2)
	var jobs []*job.Job

	id := 0
	add := func(class string, submit, est, run int64, width int) {
		jobs = append(jobs, &job.Job{
			ID: job.ID(id), Class: class, User: class,
			Submit: submit, Estimate: est, Runtime: run, Nodes: width,
		})
		id++
	}
	for d := 0; d < days; d++ {
		day := int64(d) * 86400
		// ~12 drug-design jobs per day, short to medium, narrow.
		for i := 0; i < 12; i++ {
			submit := day + stats.UniformInt(rDrug, 0, 86399)
			run := int64(stats.LogUniform(rDrug, 300, 7200))
			est := run * stats.UniformInt(rDrug, 1, 3)
			add(ClassDrug, submit, est, run, 1+int(stats.UniformInt(rDrug, 0, 7)))
		}
		// ~20 university jobs per day, working hours, wider and longer.
		for i := 0; i < 20; i++ {
			submit := day + stats.UniformInt(rUni, 8*3600, 18*3600)
			run := int64(stats.LogUniform(rUni, 600, 21600))
			est := run * stats.UniformInt(rUni, 1, 4)
			add(ClassUni, submit, est, run, 1+int(stats.UniformInt(rUni, 0, 31)))
		}
	}
	job.SortBySubmit(jobs)
	job.Renumber(jobs)

	sessions := make([]Session, days)
	for d := 0; d < days; d++ {
		sessions[d] = Session{At: int64(d)*86400 + 10*3600, Nodes: nodes / 2}
	}
	return &Scenario{
		Machine:  sim.Machine{Nodes: nodes},
		Jobs:     jobs,
		Sessions: sessions,
	}
}

// Criteria evaluates the two Example 1 criteria on a completed schedule:
//
//   - drugResponse: average response time of the drug-design jobs in
//     seconds (rule 1, lower is better), and
//   - unavailability: the percentage of course sessions whose node
//     requirement was NOT free at session start (rule 5 turned into a
//     cost: 0 = course always served, 100 = never).
func (sc *Scenario) Criteria(s *sim.Schedule) (drugResponse, unavailability float64) {
	var sum float64
	n := 0
	for _, a := range s.Allocs {
		if a.Job.Class == ClassDrug {
			sum += float64(a.ResponseTime())
			n++
		}
	}
	if n > 0 {
		drugResponse = sum / float64(n)
	}
	missed := 0
	for _, sess := range sc.Sessions {
		used := 0
		for _, a := range s.Allocs {
			if a.Start <= sess.At && sess.At < a.End {
				used += a.Job.Nodes
			}
		}
		if sc.Machine.Nodes-used < sess.Nodes {
			missed++
		}
	}
	if len(sc.Sessions) > 0 {
		unavailability = float64(missed) / float64(len(sc.Sessions)) * 100
	}
	return drugResponse, unavailability
}

// reservingStarter wraps a start policy with course-awareness: a job may
// not start if its estimated completion crosses the next course session
// while leaving fewer than the session's nodes free at session start
// (given the estimated completions of the running jobs). reserve scales
// how much of the session requirement is protected: 0 = ignore the
// course entirely, 1 = protect it fully. The wrapper is only the rule
// (sched.Admitter); the inner policy decides among the admissible jobs
// through sched.Filter's pass loop.
type reservingStarter struct {
	sched.Filter
	sessions []Session
	reserve  float64
	// State of the current start decision (BeginDecision → Admits): the
	// next session, and how many nodes are left at its start once the
	// running jobs projected to still hold theirs are counted.
	now      int64
	sess     *Session
	headroom int
}

var _ sched.Admitter = (*reservingStarter)(nil)

// WithReserve returns base with its start policy wrapped by the
// course-reservation rule at the given strength.
func WithReserve(base *sched.Composite, sessions []Session, reserve float64) *sched.Composite {
	return sched.WrapStarter(base, func(inner sched.Starter) sched.Starter {
		return &reservingStarter{Filter: sched.NewFilter(inner), sessions: sessions, reserve: reserve}
	})
}

func (s *reservingStarter) Name() string {
	return fmt.Sprintf("%s+reserve(%.2f)", s.Inner().Name(), s.reserve)
}

// PickMany implements sched.Starter.
func (s *reservingStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, m, limit int) []*job.Job {
	return s.PickAdmitted(s, ix, now, free, running, m, limit)
}

// BeginDecision implements sched.Admitter.
func (s *reservingStarter) BeginDecision(now int64, free int, running []sim.Running, m int) bool {
	s.now, s.sess = now, nil
	if s.reserve == 0 {
		return true
	}
	s.sess = s.nextSession(now)
	if s.sess == nil {
		return true
	}
	// Nodes projected busy at session start, before the candidate's own.
	busy := 0
	for _, r := range running {
		if r.EstEnd > s.sess.At {
			busy += r.Job.Nodes
		}
	}
	s.headroom = m - busy - int(float64(s.sess.Nodes)*s.reserve)
	return true
}

// Admits implements sched.Admitter.
func (s *reservingStarter) Admits(jj *job.Job) bool {
	if s.sess == nil || job.AddSat(s.now, jj.Estimate) <= s.sess.At {
		return true // no session ahead, or finishes (by estimate) before it
	}
	return jj.Nodes <= s.headroom
}

func (s *reservingStarter) nextSession(now int64) *Session {
	for i := range s.sessions {
		if s.sessions[i].At >= now {
			return &s.sessions[i]
		}
	}
	return nil
}

// SweepResult is one schedule's position in the two-criteria space.
type SweepResult struct {
	Algorithm string
	Reserve   float64
	Point     objective.Point
}

// Sweep simulates a family of schedules over the scenario: every base
// algorithm crossed with a range of course-reservation strengths. exact
// replaces user estimates by exact runtimes first (the off-line proxy of
// Figure 2 — complete job knowledge). The returned points carry
// Criteria = [drug response seconds, course unavailability percent].
func (sc *Scenario) Sweep(reserves []float64, exact bool) ([]SweepResult, error) {
	jobs := sc.Jobs
	if exact {
		jobs = trace.WithExactEstimates(jobs)
	}
	type base struct {
		name  string
		order sched.OrderName
		start sched.StartName
	}
	bases := []base{
		{"FCFS/EASY", sched.OrderFCFS, sched.StartEASY},
		{"FCFS/Cons", sched.OrderFCFS, sched.StartConservative},
		{"SMART-FFIA/EASY", sched.OrderSMARTFFIA, sched.StartEASY},
		{"Garey&Graham", sched.OrderGG, sched.StartList},
	}
	var out []SweepResult
	for _, b := range bases {
		for _, rv := range reserves {
			alg, err := sched.New(b.order, b.start, sched.Config{MachineNodes: sc.Machine.Nodes})
			if err != nil {
				return nil, fmt.Errorf("policy: %s: %w", b.name, err)
			}
			wrapped := WithReserve(alg, sc.Sessions, rv)
			res, err := sim.Run(sc.Machine, job.CloneAll(jobs), wrapped, sim.Options{Validate: true})
			if err != nil {
				return nil, fmt.Errorf("policy: %s reserve %.2f: %w", b.name, rv, err)
			}
			dr, un := sc.Criteria(res.Schedule)
			out = append(out, SweepResult{
				Algorithm: b.name,
				Reserve:   rv,
				Point: objective.Point{
					Label:    fmt.Sprintf("%s r=%.2f", b.name, rv),
					Criteria: []float64{dr, un},
				},
			})
		}
	}
	return out, nil
}

// Figure1 runs the sweep and applies the Section 2.2 method: select the
// Pareto-optimal schedules, then rank them by a conflict-resolving
// preference (Example 1 resolves in favour of the drug-design lab:
// prefer lower drug response). Points are returned with ranks filled
// (dominated points rank -1), ready to plot as Figure 1.
func Figure1(sc *Scenario, reserves []float64) ([]objective.Point, error) {
	sweep, err := sc.Sweep(reserves, false)
	if err != nil {
		return nil, err
	}
	points := make([]objective.Point, len(sweep))
	for i, s := range sweep {
		points[i] = s.Point
	}
	ranked := objective.RankPartialOrder(points, func(p objective.Point) float64 {
		return -p.Criteria[0] // lower drug response = higher preference
	})
	return ranked, nil
}

// Figure2 produces the on-line and off-line point clouds of Figure 2:
// the same sweep with user estimates (on-line) and with exact runtimes
// (off-line, complete knowledge). The off-line front is expected to
// cover a weakly larger region.
func Figure2(sc *Scenario, reserves []float64) (online, offline []objective.Point, err error) {
	so, err := sc.Sweep(reserves, false)
	if err != nil {
		return nil, nil, err
	}
	sf, err := sc.Sweep(reserves, true)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range so {
		online = append(online, s.Point)
	}
	for _, s := range sf {
		offline = append(offline, s.Point)
	}
	return online, offline, nil
}
