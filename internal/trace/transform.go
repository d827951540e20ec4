package trace

import (
	"jobsched/internal/job"
)

// FilterMaxNodes returns a copy of the workload without jobs wider than
// maxNodes — the paper's Section 6.1 preprocessing ("less than 0.2% of
// all jobs require more than 256 nodes ... the administrator modifies the
// trace by simply deleting all those highly parallel jobs"). IDs are
// renumbered densely. The second result is the number of deleted jobs.
func FilterMaxNodes(jobs []*job.Job, maxNodes int) ([]*job.Job, int) {
	out := make([]*job.Job, 0, len(jobs))
	removed := 0
	for _, j := range jobs {
		if j.Nodes > maxNodes {
			removed++
			continue
		}
		out = append(out, j.Clone())
	}
	job.Renumber(out)
	return out, removed
}

// WithExactEstimates returns a copy of the workload in which every user
// estimate equals the actual runtime — the Section 6.1 study of estimate
// accuracy ("the estimated execution times of the trace were simply
// replaced by the actual execution times", Table 6 / Figure 6).
func WithExactEstimates(jobs []*job.Job) []*job.Job {
	out := job.CloneAll(jobs)
	for _, j := range out {
		j.Estimate = j.Runtime
	}
	return out
}

// ScaleEstimates returns a copy in which each estimate is the actual
// runtime multiplied by factor (>= 1), modeling a uniform overestimation
// level. Used by the estimate-accuracy ablation.
func ScaleEstimates(jobs []*job.Job, factor float64) []*job.Job {
	if factor < 1 {
		panic("trace: estimate scale factor must be >= 1")
	}
	out := job.CloneAll(jobs)
	for _, j := range out {
		e := int64(float64(j.Runtime) * factor)
		if e < j.Runtime {
			e = j.Runtime
		}
		if e < 1 {
			e = 1
		}
		j.Estimate = e
	}
	return out
}

// Stats summarizes a workload for model fitting and reporting.
type Stats struct {
	Jobs          int
	MaxNodes      int
	TotalArea     float64
	SpanSeconds   int64
	MeanNodes     float64
	MeanRuntime   float64
	MeanEstimate  float64
	MeanInterarr  float64
	OverestFactor float64 // mean estimate/runtime ratio
}

// Summarize computes workload statistics.
func Summarize(jobs []*job.Job) Stats {
	s := Stats{Jobs: len(jobs)}
	if len(jobs) == 0 {
		return s
	}
	sorted := job.SortBySubmit(job.CloneAll(jobs))
	first, last := job.Span(sorted)
	s.SpanSeconds = last - first
	var nodes, run, est, over float64
	for _, j := range sorted {
		if j.Nodes > s.MaxNodes {
			s.MaxNodes = j.Nodes
		}
		nodes += float64(j.Nodes)
		run += float64(j.Runtime)
		est += float64(j.Estimate)
		over += float64(j.Estimate) / float64(j.Runtime)
		s.TotalArea += j.Area()
	}
	n := float64(len(sorted))
	s.MeanNodes = nodes / n
	s.MeanRuntime = run / n
	s.MeanEstimate = est / n
	s.OverestFactor = over / n
	if len(sorted) > 1 {
		s.MeanInterarr = float64(sorted[len(sorted)-1].Submit-sorted[0].Submit) / (n - 1)
	}
	return s
}

// OfferedLoad returns the offered utilization of the workload on a
// machine of the given size: total area / (span × nodes).
func OfferedLoad(jobs []*job.Job, machineNodes int) float64 {
	s := Summarize(jobs)
	if s.SpanSeconds == 0 || machineNodes == 0 {
		return 0
	}
	return s.TotalArea / (float64(s.SpanSeconds) * float64(machineNodes))
}
