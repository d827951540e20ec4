package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecWithinDriverLimits holds BENCHMARK.json to what the driver
// accepts and to the names later issues cite.
func TestSpecWithinDriverLimits(t *testing.T) {
	spec := loadTestSpec(t)
	if n := len(spec.Workloads); n != 6 {
		t.Errorf("%d workloads, want the six named ones", n)
	}
	if n := len(spec.EndToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, at most 16", n)
	}
	if n := len(spec.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
	want := []string{"sim_stream", "sim_backlog", "grid_ctc", "serve_steady", "serve_backlog", "serve_mixed"}
	if got := strings.Join(spec.workloadNames(), " "); got != strings.Join(want, " ") {
		t.Errorf("workloads %q, want %q", got, strings.Join(want, " "))
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
	}
	for _, m := range spec.PerLayer {
		applies := 0
		for _, w := range want {
			if layerApplies(m.Name, w) {
				applies++
			}
		}
		if applies == 0 {
			t.Errorf("per-layer metric %s applies to no workload", m.Name)
		}
	}
	for _, p := range spec.Paths {
		if len(spec.Command) == 0 || !strings.HasPrefix(spec.Command[len(spec.Command)-1], p+"/") {
			t.Errorf("command %v does not start a program under %s", spec.Command, p)
		}
	}
}

// smoke runs every workload at tiny sizes, daemon included, and returns
// the report.
func smoke(t *testing.T, traced bool) *report {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	args := []string{"-smoke", "-seconds", "0.3", "-out", out, "-trace-out", filepath.Join(t.TempDir(), "spans.json")}
	if traced {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v: exit %d\n%s\n%s", args, code, stdout.String(), stderr.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkReport asserts that every workload of BENCHMARK.json reported,
// and every metric that applies to it exactly once with a finite value.
func checkReport(t *testing.T, spec *benchSpec, rep *report, traced bool) {
	t.Helper()
	if len(rep.Results) != len(spec.Workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Results), len(spec.Workloads))
	}
	for i, res := range rep.Results {
		if res.Workload != spec.Workloads[i].Name {
			t.Errorf("result %d is %s, want %s", i, res.Workload, spec.Workloads[i].Name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v", res.Workload, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		metrics := spec.active(traced)
		if len(res.Metrics) != len(metrics) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", res.Workload, len(res.Metrics), len(metrics))
		}
		for _, m := range metrics {
			v, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: %s not reported", res.Workload, m.Name)
				continue
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", res.Workload, m.Name, v.Value)
			}
			applies := !traced || layerApplies(m.Name, res.Workload)
			if !applies && v.Value != 0 {
				t.Errorf("%s: %s = %v on a workload it does not apply to", res.Workload, m.Name, v.Value)
			}
			if !traced && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, m.Name, v.Value)
			}
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	spec := loadTestSpec(t)
	rep := smoke(t, false)
	checkReport(t, spec, rep, false)
	if rep.Environment.NProc < 1 || rep.Environment.GoVersion == "" || rep.Environment.WorkDirFS == "" {
		t.Errorf("environment not filled in: %+v", rep.Environment)
	}
	// What a daemon user sees beyond the uniform end-to-end set.
	for _, res := range rep.Results {
		if !strings.HasPrefix(res.Workload, "serve_") {
			continue
		}
		for _, k := range []string{"submit_p50_ms", "submit_p95_ms", "advance_p50_ms", "recover_s", "data_bytes_per_job"} {
			if res.Detail[k].Value <= 0 {
				t.Errorf("%s: %s = %v", res.Workload, k, res.Detail[k].Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	spec := loadTestSpec(t)
	rep := smoke(t, true)
	checkReport(t, spec, rep, true)
	// Layers that must have done work where the README says they do.
	positive := map[string][]string{
		"sim_stream":    {"workload.stream.next_ns", "sim.sink.emit_ns", "sim.engine.events", "queue.ops.pushes", "sched.calls.startable"},
		"sim_backlog":   {"queue.ops.rebuilds", "profile.ops.earliest_fit", "sched.cell_s.FCFS-List", "sched.starts_per_pass"},
		"grid_ctc":      {"profile.ops.earliest_fit", "eval.cell_s.FCFS.Backfilling", "eval.grid_parallel_s", "trace.scan_ns_per_job"},
		"serve_steady":  {"serve.session.submit_us", "serve.wal.append_us", "serve.store.submit_us", "serve.server.submit_us", "serve.daemon.submit_1conn_us", "serve.ladder.coverage", "recover_s"},
		"serve_backlog": {"serve.session.fingerprint_us", "serve.snapshot.bytes", "serve.store.open_ms", "data_bytes_per_job"},
		"serve_mixed":   {"read_p50_ms", "read_p95_ms", "advance_p50_ms", "submit_p50_ms"},
	}
	for _, res := range rep.Results {
		for _, k := range positive[res.Workload] {
			if res.Metrics[k].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", res.Workload, k, res.Metrics[k].Value)
			}
		}
	}
}

// TestDriverLine runs one workload the way the driver does and checks
// the last line of standard output.
func TestDriverLine(t *testing.T) {
	spec := loadTestSpec(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "--workload", "sim_backlog", "--seed", "3", "--seconds", "0.2", "--trace", "0"}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 {
		t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(spec.EndToEnd) {
		t.Errorf("%d metrics on the driver line, want %d", len(metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		got, ok := metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("driver line: %s = %+v, want a value in %s", m.Name, got, m.Unit)
		}
	}
	if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", line["correct"], line["failed"])
	}
}

// TestCorruptExpectFails shows the command exits non-zero when an output
// check fails: one committed expect value is changed.
func TestCorruptExpectFails(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	expect, err := loadExpect(filepath.Join(root, "benchmark", "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	o := expect["sim_backlog/smoke"]
	if o["makespan.FCFS-List"] == "" {
		t.Fatal("expect.json has no sim_backlog/smoke makespan.FCFS-List")
	}
	corrupt := outcome{}
	for k, v := range o {
		corrupt[k] = v
	}
	corrupt["makespan.FCFS-List"] += "1"
	expect["sim_backlog/smoke"] = corrupt
	path := filepath.Join(t.TempDir(), "expect.json")
	if err := saveExpect(path, expect); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-workload", "sim_backlog", "-seconds", "0.2", "-expect", path}
	if code := realMain(args, &stdout, &stderr); code == 0 {
		t.Fatalf("exit 0 with a corrupted expect value\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.Contains(lines[len(lines)-1], `"correct":false`) {
		t.Errorf("driver line does not report the failure: %s", lines[len(lines)-1])
	}
	if !strings.Contains(stdout.String(), "differs from the expect values") {
		t.Errorf("report does not name the failed check:\n%s", stdout.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Error(err)
	}
}
