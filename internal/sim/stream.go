package sim

import (
	"encoding/json"
	"io"

	"jobsched/internal/job"
)

// Source supplies the arrival stream one job at a time: the streaming
// counterpart of the jobs slice taken by Run, letting a simulation pull
// arrivals straight off a trace file without materializing them.
//
// Next returns the next job or (nil, nil) when the stream is exhausted.
// Jobs must arrive in non-decreasing submission order — the engine
// cannot sort what it has not seen — but jobs sharing a submission time
// may come in any order: the engine sorts each same-instant batch by ID,
// so a Source and a pre-sorted slice drive byte-identical simulations.
// trace.Scanner satisfies Source directly.
type Source interface {
	Next() (*job.Job, error)
}

// SliceSource adapts an in-memory job slice to the Source interface.
type SliceSource struct {
	jobs []*job.Job
}

// NewSliceSource copies jobs and sorts the copy by (Submit, ID); the
// input slice is not modified.
func NewSliceSource(jobs []*job.Job) *SliceSource {
	sorted := append([]*job.Job(nil), jobs...)
	job.SortBySubmit(sorted)
	return &SliceSource{jobs: sorted}
}

// Next implements Source.
func (s *SliceSource) Next() (*job.Job, error) {
	if len(s.jobs) == 0 {
		return nil, nil
	}
	j := s.jobs[0]
	s.jobs = s.jobs[1:]
	return j, nil
}

// Sink receives finalized allocations as the simulation produces them.
// With a Sink set, the engine stops retaining allocations in
// Result.Schedule.Allocs — the memory contract that lets a million-job
// run complete under a fixed heap ceiling.
//
// Allocations arrive in finalization order (completion and abort event
// order), not start order. A non-nil error from Emit aborts the run.
type Sink interface {
	Emit(a Allocation) error
}

// MultiSink fans every allocation out to several sinks (e.g. aggregates
// plus a spill file). The first Emit error aborts the fan-out.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(a Allocation) error {
	for _, s := range m {
		if err := s.Emit(a); err != nil {
			return err
		}
	}
	return nil
}

// Aggregates is a Sink accumulating the schedule-level metrics in
// constant memory. It is the one definition of the paper's schedule
// objectives: objective.AvgResponseTime, AvgWeightedResponseTime,
// AvgWaitTime and Utilization fold a retained schedule through it
// (Schedule.Aggregates). Response and wait sums are held as int64, so
// they are exact; the weighted and area sums are float64, so a stream
// folded in completion order may differ from the same schedule folded
// in allocation order by summation-order rounding.
type Aggregates struct {
	// Jobs counts finalized allocations, including failure-aborted
	// attempts; Completed excludes them (aborted attempts carry no
	// response — the restarted attempt does).
	Jobs            int64
	Completed       int64
	AbortedAttempts int64
	Killed          int64

	// ResponseSum and WaitSum are summed over non-aborted allocations.
	ResponseSum int64
	WaitSum     int64
	// WeightedSum accumulates resource-weighted responses over
	// non-aborted allocations: weight = nodes × actual execution time.
	WeightedSum float64
	// UsedArea is the node-seconds consumed by all attempts, aborted
	// ones included (they occupied the machine until the failure).
	UsedArea float64
	// FirstStart is the earliest start time seen and Makespan the
	// largest completion time.
	FirstStart int64
	Makespan   int64
}

// Emit implements Sink.
func (g *Aggregates) Emit(a Allocation) error {
	g.fold(a)
	return nil
}

// fold adds one finalized allocation to the aggregates.
func (g *Aggregates) fold(a Allocation) {
	if g.Jobs == 0 || a.Start < g.FirstStart {
		g.FirstStart = a.Start
	}
	g.Jobs++
	g.UsedArea += float64(a.Job.Nodes) * float64(a.End-a.Start)
	if a.End > g.Makespan {
		g.Makespan = a.End
	}
	if a.Aborted {
		g.AbortedAttempts++
		return
	}
	g.Completed++
	if a.Killed {
		g.Killed++
	}
	g.ResponseSum = job.AddSat(g.ResponseSum, a.ResponseTime())
	g.WaitSum = job.AddSat(g.WaitSum, a.WaitTime())
	g.WeightedSum += float64(a.Job.Nodes) * float64(a.End-a.Start) * float64(a.ResponseTime())
}

// AvgResponseTime is the paper's daytime objective (Example 5 rule 5):
// the mean of completion − submission over completed jobs, all jobs
// counting equally (rule 4: users are equal).
func (g *Aggregates) AvgResponseTime() float64 {
	if g.Completed == 0 {
		return 0
	}
	return float64(g.ResponseSum) / float64(g.Completed)
}

// AvgWaitTime is the mean of start − submission over completed jobs.
func (g *Aggregates) AvgWaitTime() float64 {
	if g.Completed == 0 {
		return 0
	}
	return float64(g.WaitSum) / float64(g.Completed)
}

// AvgWeightedResponseTime is the paper's night/weekend objective
// (Section 4): response times weighted by the resources the job
// consumed, averaged over completed jobs.
func (g *Aggregates) AvgWeightedResponseTime() float64 {
	if g.Completed == 0 {
		return 0
	}
	return g.WeightedSum / float64(g.Completed)
}

// Utilization is the used fraction of node-seconds on a machine of the
// given size: used area over (makespan − first start) × nodes.
func (g *Aggregates) Utilization(nodes int) float64 {
	span := float64(g.Makespan-g.FirstStart) * float64(nodes)
	if g.Makespan == 0 || span == 0 {
		return 0
	}
	return g.UsedArea / span
}

// AllocRecord is the JSONL spill schema written by AllocEncoder: one
// finalized allocation per line, self-contained (job fields inlined) so
// analysis tools can replay metrics without the source trace.
type AllocRecord struct {
	Job     int64  `json:"job"`
	Nodes   int    `json:"nodes"`
	Submit  int64  `json:"submit"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Killed  bool   `json:"killed,omitempty"`
	Aborted bool   `json:"aborted,omitempty"`
	User    string `json:"user,omitempty"`
}

// AllocEncoder is a Sink spilling allocations as JSONL to a writer
// (typically a file owned by the caller — the engine itself never
// touches the file system).
type AllocEncoder struct {
	enc *json.Encoder
}

// NewAllocEncoder wraps w for JSONL allocation spilling.
func NewAllocEncoder(w io.Writer) *AllocEncoder {
	return &AllocEncoder{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (e *AllocEncoder) Emit(a Allocation) error {
	return e.enc.Encode(AllocRecord{
		Job:     int64(a.Job.ID),
		Nodes:   a.Job.Nodes,
		Submit:  a.Job.Submit,
		Start:   a.Start,
		End:     a.End,
		Killed:  a.Killed,
		Aborted: a.Aborted,
		User:    a.Job.User,
	})
}

// Allocation converts a spill record back to an allocation over a
// reconstructed job (runtime derived from the span for non-aborted
// attempts; the estimate is not recorded and is left equal).
func (r AllocRecord) Allocation() Allocation {
	span := r.End - r.Start
	return Allocation{
		Job: &job.Job{
			ID:       job.ID(r.Job),
			Submit:   r.Submit,
			Nodes:    r.Nodes,
			Runtime:  span,
			Estimate: span,
			User:     r.User,
		},
		Start:   r.Start,
		End:     r.End,
		Killed:  r.Killed,
		Aborted: r.Aborted,
	}
}
