package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/telemetry"
)

// fileOrderSource replays a fixed slice verbatim — including any
// within-instant disorder — the way a trace scanner would.
type fileOrderSource struct {
	jobs []*job.Job
	i    int
}

func (s *fileOrderSource) Next() (*job.Job, error) {
	if s.i >= len(s.jobs) {
		return nil, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// randomWorkload builds a deterministic pseudo-random workload with
// plenty of same-instant ties, delivered in file order (sorted by submit
// only; IDs shuffled within each instant).
func randomWorkload(seed int64, n, nodes int) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, 0, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 { // ~2/3 of jobs tie with the previous instant
			t += int64(rng.Intn(50))
		}
		runtime := int64(1 + rng.Intn(200))
		estimate := runtime + int64(rng.Intn(100))
		jobs = append(jobs, &job.Job{
			ID: job.ID(1000 + i), Submit: t,
			Runtime: runtime, Estimate: estimate,
			Nodes: 1 + rng.Intn(nodes),
		})
	}
	// Shuffle IDs within each submit instant so the file order disagrees
	// with ID order (the engine must re-sort each batch).
	for lo := 0; lo < len(jobs); {
		hi := lo
		for hi < len(jobs) && jobs[hi].Submit == jobs[lo].Submit {
			hi++
		}
		rng.Shuffle(hi-lo, func(a, b int) {
			jobs[lo+a], jobs[lo+b] = jobs[lo+b], jobs[lo+a]
		})
		lo = hi
	}
	return jobs
}

// TestRunStreamMatchesRun is the streaming differential: pulling
// arrivals from a file-order source must reproduce the slice run
// exactly — same Result, same schedule, same telemetry event stream.
func TestRunStreamMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Validate: true}},
		{"failures", Options{Validate: true,
			Failures: []Failure{{At: 40, Nodes: 3, Duration: 60}, {At: 300, Nodes: 2, Duration: 30}}}},
		{"failures-backoff", Options{Validate: true,
			Failures: []Failure{{At: 40, Nodes: 3, Duration: 60}},
			Resubmit: ResubmitPolicy{MaxResubmits: 2, BackoffBase: 10, BackoffFactor: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := randomWorkload(7, 400, 4)

			sliceOpt := tc.opt
			var sliceTrace telemetry.Buffer
			sliceOpt.Recorder = &sliceTrace
			want, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, sliceOpt)
			if err != nil {
				t.Fatal(err)
			}

			streamOpt := tc.opt
			var streamTrace telemetry.Buffer
			streamOpt.Recorder = &streamTrace
			got, err := RunStream(Machine{Nodes: 4}, &fileOrderSource{jobs: jobs}, &fifoScheduler{}, streamOpt)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(want, got) {
				t.Errorf("streamed Result differs from slice Result:\n%+v\nvs\n%+v", got, want)
			}
			if !reflect.DeepEqual(sliceTrace.Events(), streamTrace.Events()) {
				t.Errorf("telemetry differs: %d vs %d events", sliceTrace.Len(), streamTrace.Len())
				for i := range sliceTrace.Events() {
					if i < streamTrace.Len() && sliceTrace.Events()[i] != streamTrace.Events()[i] {
						t.Fatalf("first divergence at event %d:\n%+v\nvs\n%+v",
							i, sliceTrace.Events()[i], streamTrace.Events()[i])
					}
				}
			}
		})
	}
}

// TestRunSinkMatchesRetainedSchedule: a sinked run must leave the
// retained schedule empty and deliver, via the sink, exactly the
// allocations a retained run records (as a set — the sink emits in
// finalization order, the schedule in start order).
func TestRunSinkMatchesRetainedSchedule(t *testing.T) {
	jobs := randomWorkload(11, 300, 4)
	opt := Options{Failures: []Failure{{At: 50, Nodes: 3, Duration: 40}}}
	want, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, opt)
	if err != nil {
		t.Fatal(err)
	}

	var got []Allocation
	collect := sinkFunc(func(a Allocation) error { got = append(got, a); return nil })
	opt.Sink = collect
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Allocs) != 0 {
		t.Errorf("sink mode retained %d allocations", len(res.Schedule.Allocs))
	}
	if res.Events != want.Events || res.MaxQueue != want.MaxQueue ||
		res.AbortedAttempts != want.AbortedAttempts || res.Resubmits != want.Resubmits {
		t.Errorf("counters differ: %+v vs %+v", res, want)
	}
	if len(got) != len(want.Schedule.Allocs) {
		t.Fatalf("sink saw %d allocations, schedule has %d", len(got), len(want.Schedule.Allocs))
	}
	key := func(a Allocation) string {
		return fmt.Sprintf("%d/%d/%d/%v/%v", a.Job.ID, a.Start, a.End, a.Killed, a.Aborted)
	}
	seen := make(map[string]int)
	for _, a := range want.Schedule.Allocs {
		seen[key(a)]++
	}
	for _, a := range got {
		if seen[key(a)] == 0 {
			t.Errorf("sink emitted allocation not in retained schedule: %+v", a)
			continue
		}
		seen[key(a)]--
	}
	// Emission order: non-decreasing finalization time.
	for i := 1; i < len(got); i++ {
		if got[i].End < got[i-1].End {
			t.Errorf("sink emission not in finalization order: %d after %d", got[i].End, got[i-1].End)
		}
	}
}

type sinkFunc func(Allocation) error

func (f sinkFunc) Emit(a Allocation) error { return f(a) }

// TestAggregatesMatchSchedule: the constant-memory aggregates must
// reproduce the metrics computed from a retained schedule.
func TestAggregatesMatchSchedule(t *testing.T) {
	// The workload starts at t=1000, so utilization's span must begin at
	// the first start, not at zero.
	jobs := randomWorkload(13, 500, 4)
	for _, j := range jobs {
		j.Submit += 1000
	}
	opt := Options{Failures: []Failure{{At: 1070, Nodes: 2, Duration: 25}}}
	want, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, opt)
	if err != nil {
		t.Fatal(err)
	}

	var agg Aggregates
	streamOpt := opt
	streamOpt.Sink = &agg
	if _, err := RunStream(Machine{Nodes: 4}, &fileOrderSource{jobs: jobs}, &fifoScheduler{}, streamOpt); err != nil {
		t.Fatal(err)
	}

	// Reference values straight off the retained schedule, mirroring the
	// objective package's aborted-attempt handling.
	var respSum, waitSum, makespan int64
	var weighted, area float64
	var completed, aborted, killed int64
	first := want.Schedule.Allocs[0].Start
	for _, a := range want.Schedule.Allocs {
		area += float64(a.Job.Nodes) * float64(a.End-a.Start)
		first = min(first, a.Start)
		if a.End > makespan {
			makespan = a.End
		}
		if a.Aborted {
			aborted++
			continue
		}
		completed++
		if a.Killed {
			killed++
		}
		respSum += a.ResponseTime()
		waitSum += a.WaitTime()
		weighted += float64(a.Job.Nodes) * float64(a.End-a.Start) * float64(a.ResponseTime())
	}
	if agg.Jobs != int64(len(want.Schedule.Allocs)) || agg.Completed != completed ||
		agg.AbortedAttempts != aborted || agg.Killed != killed {
		t.Errorf("counts: %+v; want %d/%d/%d/%d", agg, len(want.Schedule.Allocs), completed, aborted, killed)
	}
	if agg.ResponseSum != respSum || agg.WaitSum != waitSum || agg.Makespan != makespan {
		t.Errorf("sums: resp %d want %d, wait %d want %d, makespan %d want %d",
			agg.ResponseSum, respSum, agg.WaitSum, waitSum, agg.Makespan, makespan)
	}
	if agg.UsedArea != area {
		t.Errorf("used area %g, want %g", agg.UsedArea, area)
	}
	// objective.Utilization's formula (that package imports sim, so its
	// own tests check the two agree on a hand-built schedule).
	if first < 1000 || agg.FirstStart != first {
		t.Errorf("first start %d, want %d (>= 1000)", agg.FirstStart, first)
	}
	if got, want := agg.Utilization(4), area/(float64(makespan-first)*4); got != want {
		t.Errorf("Utilization %g, want %g", got, want)
	}
	if rel := math.Abs(agg.WeightedSum-weighted) / weighted; rel > 1e-12 {
		t.Errorf("weighted sum %g, want %g (rel %g)", agg.WeightedSum, weighted, rel)
	}
	wantAvg := float64(respSum) / float64(completed)
	if agg.AvgResponseTime() != wantAvg {
		t.Errorf("AvgResponseTime %g, want %g", agg.AvgResponseTime(), wantAvg)
	}
}

func TestAllocEncoderRoundTrip(t *testing.T) {
	jobs := randomWorkload(17, 50, 4)
	var buf bytes.Buffer
	var agg Aggregates
	opt := Options{Sink: MultiSink{&agg, NewAllocEncoder(&buf)}}
	if _, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, opt); err != nil {
		t.Fatal(err)
	}
	var n int64
	sc := bufio.NewScanner(&buf)
	var replay Aggregates
	for sc.Scan() {
		var r AllocRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if err := replay.Emit(r.Allocation()); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != agg.Jobs {
		t.Fatalf("spill has %d records, aggregates saw %d", n, agg.Jobs)
	}
	// The spill is self-contained: replaying it reproduces the sums.
	if replay.ResponseSum != agg.ResponseSum || replay.WaitSum != agg.WaitSum ||
		replay.Makespan != agg.Makespan || replay.UsedArea != agg.UsedArea {
		t.Errorf("replayed aggregates differ: %+v vs %+v", replay, agg)
	}
}

func TestRunStreamSourceErrorPropagates(t *testing.T) {
	boom := errors.New("disk on fire")
	src := &erringSource{after: 3, err: boom}
	_, err := RunStream(Machine{Nodes: 4}, src, &fifoScheduler{}, Options{})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("source error lost: %v", err)
	}
	if !strings.Contains(err.Error(), "arrival source") {
		t.Errorf("error %q does not name the source", err)
	}
}

type erringSource struct {
	after int
	err   error
}

func (s *erringSource) Next() (*job.Job, error) {
	if s.after == 0 {
		return nil, s.err
	}
	s.after--
	return &job.Job{ID: job.ID(s.after), Submit: 0, Runtime: 10, Estimate: 10, Nodes: 1}, nil
}

func TestRunStreamRejectsBackwardsSource(t *testing.T) {
	jobs := []*job.Job{
		mkJob(0, 100, 10, 10, 1),
		mkJob(1, 50, 10, 10, 1),
	}
	_, err := RunStream(Machine{Nodes: 4}, &fileOrderSource{jobs: jobs}, &fifoScheduler{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("backwards source accepted: %v", err)
	}
}

func TestSinkIncompatibleWithValidate(t *testing.T) {
	var agg Aggregates
	_, err := Run(Machine{Nodes: 4}, nil, &fifoScheduler{}, Options{Validate: true, Sink: &agg})
	if err == nil || !strings.Contains(err.Error(), "Validate") {
		t.Fatalf("Validate+Sink accepted: %v", err)
	}
}

func TestSinkErrorAbortsRun(t *testing.T) {
	boom := errors.New("spill full")
	opt := Options{Sink: sinkFunc(func(Allocation) error { return boom })}
	jobs := []*job.Job{mkJob(0, 0, 10, 10, 1)}
	_, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, opt)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("sink error lost: %v", err)
	}
}
