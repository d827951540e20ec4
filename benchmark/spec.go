package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json: the contract between this program, the
// driver that runs it, and later issues that cite its names.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate holds the file to the limits the driver enforces, so that a
// bad edit fails in go test and not in the driver.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must have 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range s.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s must not have a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
		}
	}
	return nil
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// active lists the metrics a run must print: the end-to-end ones
// untraced, the per-layer ones traced.
func (s *benchSpec) active(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// layerApplies says which workloads' traced runs measure a per-layer
// metric. On the other workloads the layer is not on the path — that is
// the "no change expected" prediction of the README's interaction table
// — and the traced run prints 0 for it, since the driver wants every
// per-layer metric from every workload.
func layerApplies(metric, workload string) bool {
	has := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(metric, p) {
				return true
			}
		}
		return false
	}
	offline := !strings.HasPrefix(workload, "serve_")
	switch {
	case metric == "benchmark.trace.overhead_share":
		return true
	case has("workload.stream.", "sim.sink."):
		return workload == "sim_stream"
	case has("sched.cell_s."):
		return workload == "sim_backlog"
	case has("sim.", "sched.", "queue.", "profile."):
		return offline
	case has("eval.", "objective.", "trace."):
		return workload == "grid_ctc"
	case has("read_"):
		return workload == "serve_mixed"
	}
	return !offline // serve.* and the daemon user's times
}

// checkEmitted holds a result to the spec: every metric that applies to
// the workload exactly once with a finite value (end-to-end metrics
// never 0), and nothing else. It then fills in the layer metrics that do
// not apply with 0.
func (s *benchSpec) checkEmitted(res *result) []string {
	var bad []string
	want := map[string]bool{}
	for _, m := range s.active(res.Traced) {
		want[m.Name] = true
		v, ok := res.Metrics[m.Name]
		applies := !res.Traced || layerApplies(m.Name, res.Workload)
		switch {
		case !applies && ok:
			bad = append(bad, m.Name+" emitted by a workload it does not apply to")
		case !applies:
			res.Metrics[m.Name] = one(0)
		case !ok:
			bad = append(bad, m.Name+" not emitted")
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			bad = append(bad, fmt.Sprintf("%s is %v", m.Name, v.Value))
		case !res.Traced && v.Value == 0:
			bad = append(bad, m.Name+" is 0")
		}
	}
	for k := range res.Metrics {
		if !want[k] {
			bad = append(bad, k+" emitted but not in BENCHMARK.json")
		}
	}
	sort.Strings(bad)
	return bad
}

func loadExpect(path string) (map[string]outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]outcome{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func saveExpect(path string, e map[string]outcome) error {
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
