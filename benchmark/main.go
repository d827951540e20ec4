// Command benchmark is this repository's one benchmark: six named
// workloads over the simulator and the jobschedd daemon, their output
// checks, the end-to-end metrics of BENCHMARK.json, and — in a separate
// traced run — the per-layer metrics. See README.md in this directory.
//
//	go run ./benchmark                                   all six workloads, a report
//	go run ./benchmark -workload grid_ctc -trace 1       one workload's layer metrics
//	go run ./benchmark -out A.json; … -out B.json
//	go run ./benchmark -compare A.json B.json
//
// With -workload the last line of standard output is the one JSON
// object the benchmark driver reads; everything before it is for people.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	out      string
	smoke    bool
	runs     int
	expect   string
	update   bool
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with the driver's JSON line (default: all six)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the only input of the generated workloads")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics and the span file")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/spans-<workload>.json)")
	fs.StringVar(&o.out, "out", "", "also write the full report (all samples) to this file, for -compare")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes: every code path in a few seconds")
	fs.IntVar(&o.runs, "runs", 1, "repeat each workload this often with seeds seed, seed+1, …; the report pools the runs")
	fs.StringVar(&o.expect, "expect", "", "expect values file (default benchmark/expect.json)")
	fs.BoolVar(&o.update, "update-expect", false, "record this run's outputs as the expect values (seed 1 only)")
	compare := fs.Bool("compare", false, "compare two -out reports: benchmark -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	code, err := benchMain(o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// findRoot walks up from the working directory to the module root, so
// that the program runs the same from the checkout root (go run) and
// from its own directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no go.mod with a BENCHMARK.json beside it above the working directory")
		}
		dir = up
	}
}

// report is the -out document and the input of -compare.
type report struct {
	Environment environment `json:"environment"`
	Sizes       string      `json:"sizes"`
	Results     []*result   `json:"results"`
}

func benchMain(o options, stdout, stderr io.Writer) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.expect == "" {
		o.expect = filepath.Join(root, "benchmark", "expect.json")
	}
	expect, err := loadExpect(o.expect)
	if err != nil {
		return 1, err
	}
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	names := spec.workloadNames()
	if o.workload != "" {
		if !slices.Contains(names, o.workload) {
			return 2, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}

	work, err := newWorkArea(root)
	if err != nil {
		return 1, err
	}
	defer work.cleanup()
	// SIGINT/SIGTERM: kill the daemon, remove the work area, exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			work.cleanup()
			os.Exit(130)
		}
	}()
	defer func() { signal.Stop(sig); close(sig) }()

	env := probeEnvironment(work.dir)
	fmt.Fprintf(stdout, "environment: nproc=%d GOMAXPROCS=%d %s work-dir-fs=%s (durability is process-crash level: kill -9 keeps the page cache; fsync times are this sandbox's disk)\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.WorkDirFS)
	needDaemon := false
	for _, n := range names {
		needDaemon = needDaemon || strings.HasPrefix(n, "serve_")
	}
	if needDaemon {
		if env.WorkDirFS == "tmpfs" || env.WorkDirFS == "ramfs" {
			// fsync is a no-op there, so the serve_* numbers describe no
			// real disk. Alone that is refused; under the driver, which
			// picks the checkout's location and compares two commits in
			// the same place, it is reported and the run goes on.
			if o.workload == "" {
				return 1, fmt.Errorf("work directory %s is on %s: fsync is a no-op there, refusing to measure the daemon", work.dir, env.WorkDirFS)
			}
			fmt.Fprintf(stderr, "benchmark: WARNING: work directory is on %s, fsync is a no-op; serve_* numbers describe no disk\n", env.WorkDirFS)
		}
		if err := work.buildDaemon(); err != nil {
			return 1, err
		}
	}

	rep := &report{Environment: env, Sizes: sz.label}
	ok := true
	for _, name := range names {
		var pooled *result
		for i := 0; i < o.runs; i++ {
			r := &run{workload: name, seed: o.seed + int64(i), seconds: o.seconds, traced: o.trace == 1,
				sz: sz, expect: expect, updating: o.update, work: work, log: stderr, traceOut: o.traceOut}
			if r.traceOut == "" {
				r.traceOut = filepath.Join(root, ".bench_build", "spans-"+name+".json")
			}
			fmt.Fprintf(stderr, "==> %s seed=%d traced=%v\n", name, r.seed, r.traced)
			res, err := r.execute()
			if err != nil {
				return 1, fmt.Errorf("%s: %w", name, err)
			}
			if bad := spec.checkEmitted(res); len(bad) > 0 {
				res.fail("metrics do not match BENCHMARK.json: %s", strings.Join(bad, "; "))
			}
			if o.update && res.Correct && r.seed == 1 && !r.traced {
				expect[name+"/"+sz.label] = res.Outcome
			}
			ok = ok && res.Correct
			pooled = pool(pooled, res)
		}
		printResult(stdout, spec, pooled)
		rep.Results = append(rep.Results, pooled)
	}
	if o.update {
		if err := saveExpect(o.expect, expect); err != nil {
			return 1, err
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if o.workload != "" {
		// The driver's line: last on standard output.
		if err := json.NewEncoder(stdout).Encode(driverLine(spec, rep.Results[0])); err != nil {
			return 1, err
		}
	}
	if !ok {
		return 1, errors.New("an output check failed")
	}
	return 0, nil
}

// execute runs the workload in its own scratch directory.
func (r *run) execute() (*result, error) {
	dir, err := r.work.runDir(r.workload)
	if err != nil {
		return nil, err
	}
	r.workDir = dir
	defer os.RemoveAll(dir)
	if w := offlineFor(r.workload); w != nil {
		if r.traced {
			return r.traceOffline(w)
		}
		return r.runOffline(w)
	}
	if r.traced {
		return r.traceServe()
	}
	return r.runServe()
}

// pool merges repeated runs of one workload (-runs): a metric's samples
// become the per-run values, so -compare sees run-to-run spread.
func pool(acc, res *result) *result {
	if acc == nil {
		res.pooled = 1
		return res
	}
	if acc.pooled == 1 {
		// first merge: replace per-round samples by the run's value
		for _, m := range []map[string]summary{acc.Metrics, acc.Detail} {
			for k, s := range m {
				m[k] = one(s.Value)
			}
		}
	}
	acc.pooled++
	acc.Correct = acc.Correct && res.Correct
	acc.Attempted += res.Attempted
	acc.Failed += res.Failed
	acc.Problems = append(acc.Problems, res.Problems...)
	merge := func(dst, src map[string]summary) {
		for k, s := range src {
			dst[k] = summarize(append(dst[k].Samples, s.Value))
		}
	}
	merge(acc.Metrics, res.Metrics)
	merge(acc.Detail, res.Detail)
	return acc
}

// driverLine is the contract's result object.
func driverLine(spec *benchSpec, res *result) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range spec.active(res.Traced) {
		metrics[m.Name] = mv{res.Metrics[m.Name].Value, m.Unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics}
}

// printResult is the human report: every metric by name with unit,
// bound, median, quartiles and sample count.
func printResult(w io.Writer, spec *benchSpec, res *result) {
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "\n%s  seed=%d  input: %s  checks: %s  failed/attempted: %d/%d (fail_share %.4f)\n",
		res.Workload, res.Seed, res.Input, status, res.Failed, res.Attempted, failShare(res))
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "  %-38s %-7s %-6s %14s %14s %14s %8s %3s\n", "metric", "unit", "bound", "median", "q1", "q3", "spread", "n")
	for _, m := range spec.active(res.Traced) {
		if res.Traced && !layerApplies(m.Name, res.Workload) {
			continue // printed as 0 on the driver's line only
		}
		s := res.Metrics[m.Name]
		bound := "-"
		if m.Bound != nil {
			bound = fmt.Sprintf("%.2f", *m.Bound)
		}
		fmt.Fprintf(w, "  %-38s %-7s %-6s %14.6g %14.6g %14.6g %7.1f%% %3d\n", m.Name, m.Unit, bound, s.Value, s.Q1, s.Q3, 100*s.spread(), s.N)
	}
	if len(res.Detail) > 0 {
		fmt.Fprintf(w, "  also measured in this run (reported as layer metrics by -trace 1):\n")
		keys := make([]string, 0, len(res.Detail))
		for k := range res.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := res.Detail[k]
			fmt.Fprintf(w, "  %-38s %-7s %-6s %14.6g %14.6g %14.6g %7.1f%% %3d\n", k, "", "-", s.Value, s.Q1, s.Q3, 100*s.spread(), s.N)
		}
	}
}

func failShare(res *result) float64 {
	if !res.Correct {
		return 1
	}
	if res.Attempted == 0 {
		return 0
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// environment is filled in by the run: the box the numbers belong to.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	WorkDirFS  string `json:"work_dir_fs"`
}

func probeEnvironment(workDir string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WorkDirFS:  fsName(workDir),
	}
}

// fsName names the file system a directory is on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
