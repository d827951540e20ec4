// Package objective implements the paper's objective-function layer
// (Section 2.2): scalar schedule costs for the mechanical evaluation and
// ranking of schedules, plus the multi-criteria machinery (Pareto-optimal
// filtering and partial ordering) used to derive objective functions from
// policy rules.
package objective

import "jobsched/internal/sim"

// Metric assigns a scalar cost to a completed schedule. Lower is better
// for every metric in this package except Utilization.
type Metric interface {
	Name() string
	Eval(s *sim.Schedule) float64
}

// MetricFunc adapts a function to the Metric interface.
type MetricFunc struct {
	MetricName string
	Fn         func(*sim.Schedule) float64
}

// Name implements Metric.
func (m MetricFunc) Name() string { return m.MetricName }

// Eval implements Metric.
func (m MetricFunc) Eval(s *sim.Schedule) float64 { return m.Fn(s) }

// AvgResponseTime is the paper's daytime objective (Example 5 rule 5):
// the sum of completion − submission over all jobs, divided by the number
// of jobs. All jobs count equally (rule 4: users are equal).
type AvgResponseTime struct{}

// Name implements Metric.
func (AvgResponseTime) Name() string { return "average response time" }

// Eval implements Metric by folding s through sim.Aggregates.
func (AvgResponseTime) Eval(s *sim.Schedule) float64 {
	g := s.Aggregates()
	return g.AvgResponseTime()
}

// AvgWeightedResponseTime is the paper's night/weekend objective
// substitute for machine load (Section 4): response times weighted by the
// job's resource consumption — the product of the (actual) execution time
// and the number of required nodes — averaged over jobs. For this metric
// the order of jobs does not matter if no resources are left idle [16].
type AvgWeightedResponseTime struct{}

// Name implements Metric.
func (AvgWeightedResponseTime) Name() string { return "average weighted response time" }

// Eval implements Metric by folding s through sim.Aggregates.
func (AvgWeightedResponseTime) Eval(s *sim.Schedule) float64 {
	g := s.Aggregates()
	return g.AvgWeightedResponseTime()
}

// Makespan is the completion time of the last job — the off-line load
// criterion the paper's administrator rejects for on-line use (Section 4)
// but that remains useful for bounds.
type Makespan struct{}

// Name implements Metric.
func (Makespan) Name() string { return "makespan" }

// Eval implements Metric.
func (Makespan) Eval(s *sim.Schedule) float64 { return float64(s.Makespan()) }

// IdleTime is the sum of idle node-seconds within a time frame
// [From, To) — the literal reading of Example 5 rule 6. To = 0 means the
// schedule's makespan.
type IdleTime struct {
	From, To int64
}

// Name implements Metric.
func (IdleTime) Name() string { return "idle node time" }

// Eval implements Metric.
func (m IdleTime) Eval(s *sim.Schedule) float64 {
	to := m.To
	if to == 0 {
		to = s.Makespan()
	}
	if to <= m.From {
		return 0
	}
	frame := float64(to-m.From) * float64(s.Machine.Nodes)
	var used float64
	for _, a := range s.Allocs {
		lo, hi := a.Start, a.End
		if lo < m.From {
			lo = m.From
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			used += float64(hi-lo) * float64(a.Job.Nodes)
		}
	}
	return frame - used
}

// Utilization is the used fraction of node-seconds up to the makespan.
// Higher is better; it is reported as a diagnostic, not a cost.
type Utilization struct{}

// Name implements Metric.
func (Utilization) Name() string { return "utilization" }

// Eval implements Metric by folding s through sim.Aggregates.
func (Utilization) Eval(s *sim.Schedule) float64 {
	g := s.Aggregates()
	return g.Utilization(s.Machine.Nodes)
}

// AvgWaitTime is the mean of start − submission (diagnostics).
type AvgWaitTime struct{}

// Name implements Metric.
func (AvgWaitTime) Name() string { return "average wait time" }

// Eval implements Metric by folding s through sim.Aggregates.
func (AvgWaitTime) Eval(s *sim.Schedule) float64 {
	g := s.Aggregates()
	return g.AvgWaitTime()
}
