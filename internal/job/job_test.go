package job

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func valid() *Job {
	return &Job{ID: 1, Nodes: 4, Submit: 100, Estimate: 3600, Runtime: 1800}
}

func TestValidateOK(t *testing.T) {
	if err := valid().Validate(256, true); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Job)
		want   error
		strict bool
		max    int
	}{
		{"zero nodes", func(j *Job) { j.Nodes = 0 }, ErrNoNodes, true, 256},
		{"negative nodes", func(j *Job) { j.Nodes = -3 }, ErrNoNodes, true, 256},
		{"zero estimate", func(j *Job) { j.Estimate = 0 }, ErrBadEstimate, true, 256},
		{"zero runtime", func(j *Job) { j.Runtime = 0 }, ErrBadRuntime, true, 256},
		{"negative submit", func(j *Job) { j.Submit = -1 }, ErrNegativeSubmit, true, 256},
		{"too wide", func(j *Job) { j.Nodes = 300 }, ErrNodesExceedZero, true, 256},
		{"overrun strict", func(j *Job) { j.Runtime = j.Estimate + 1 }, ErrRuntimeOverrun, true, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := valid()
			tc.mutate(j)
			err := j.Validate(tc.max, tc.strict)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestValidateNonStrictAllowsOverrun(t *testing.T) {
	j := valid()
	j.Runtime = j.Estimate + 100
	if err := j.Validate(256, false); err != nil {
		t.Fatalf("non-strict validation rejected overrun: %v", err)
	}
}

func TestValidateSkipsWidthCheckWhenZero(t *testing.T) {
	j := valid()
	j.Nodes = 100000
	if err := j.Validate(0, true); err != nil {
		t.Fatalf("maxNodes=0 must skip the width check: %v", err)
	}
}

func TestAreaAndWeights(t *testing.T) {
	j := valid() // 4 nodes × 1800 s actual, 3600 s estimated
	if got := j.Area(); got != 4*1800 {
		t.Errorf("Area = %v, want %v", got, 4*1800)
	}
	if got := j.EstimatedArea(); got != 4*3600 {
		t.Errorf("EstimatedArea = %v, want %v", got, 4*3600)
	}
	if got := UnitWeight(j); got != 1 {
		t.Errorf("UnitWeight = %v", got)
	}
	if got := AreaWeight(j); got != j.EstimatedArea() {
		t.Errorf("AreaWeight = %v, want estimated area %v", got, j.EstimatedArea())
	}
}

func TestEffectiveRuntimeAndKilled(t *testing.T) {
	j := valid()
	if j.Killed() {
		t.Error("job within limit reported killed")
	}
	if got := j.EffectiveRuntime(); got != j.Runtime {
		t.Errorf("EffectiveRuntime = %d, want %d", got, j.Runtime)
	}
	j.Runtime = j.Estimate + 500
	if !j.Killed() {
		t.Error("overrunning job not reported killed")
	}
	if got := j.EffectiveRuntime(); got != j.Estimate {
		t.Errorf("EffectiveRuntime after overrun = %d, want estimate %d", got, j.Estimate)
	}
}

func TestCloneIndependence(t *testing.T) {
	j := valid()
	c := j.Clone()
	c.Nodes = 99
	c.Runtime = 7
	if j.Nodes == 99 || j.Runtime == 7 {
		t.Fatal("Clone shares state with the original")
	}
}

func TestCloneAll(t *testing.T) {
	in := []*Job{valid(), valid()}
	out := CloneAll(in)
	if len(out) != 2 {
		t.Fatalf("CloneAll len = %d", len(out))
	}
	out[0].Nodes = 77
	if in[0].Nodes == 77 {
		t.Fatal("CloneAll shares job pointers")
	}
}

func TestStringMentionsFields(t *testing.T) {
	s := valid().String()
	for _, want := range []string{"job 1", "4 nodes", "submit 100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestEffectiveRuntimeProperty(t *testing.T) {
	// Property: effective runtime is always min(runtime, estimate) and
	// never exceeds either bound.
	f := func(runtime, estimate int16) bool {
		r, e := int64(runtime), int64(estimate)
		if r <= 0 {
			r = 1 - r
		}
		if e <= 0 {
			e = 1 - e
		}
		j := &Job{Nodes: 1, Estimate: e + 1, Runtime: r + 1}
		eff := j.EffectiveRuntime()
		return eff <= j.Runtime && eff <= j.Estimate &&
			(eff == j.Runtime || eff == j.Estimate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
