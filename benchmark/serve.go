package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jobsched/internal/serve"
)

// serveShape is what distinguishes the three daemon workloads.
type serveShape struct {
	step       int64 // clock seconds per operation: 5000 offers ≈0.7 load, 2000 ≈1.75
	maxPending int   // session max_pending (0 = daemon default)
	queued     bool  // pre-load sizes.backlogQueue queued jobs
	writers    int   // closed-loop connections submitting and advancing
	reader     bool  // plus one connection issuing GETs
}

var serveShapes = map[string]serveShape{
	"serve_steady":  {step: 5000, writers: 2},
	"serve_backlog": {step: 2000, maxPending: 50_000, queued: true, writers: 2},
	"serve_mixed":   {step: 5000, writers: 1, reader: true},
}

const (
	sessionName = "bench"
	batchJobs   = 16
	users       = 4
)

// opStream generates the submission batches: nodes 1–32, estimate
// 60–14 400 s, runtime uniform in (0, estimate], four users. With 16
// jobs per 5000 clock seconds that is ≈0.7 of a 256-node machine.
type opStream struct{ rng *rand.Rand }

func newOpStream(seed, stream int64) *opStream {
	return &opStream{rand.New(rand.NewSource(seed*7919 + stream))}
}

func (g *opStream) batch(n int) []serve.JobSpec {
	specs := make([]serve.JobSpec, n)
	for i := range specs {
		est := 60 + g.rng.Int63n(14_400-60+1)
		specs[i] = serve.JobSpec{
			User:     fmt.Sprintf("u%d", g.rng.Intn(users)),
			Nodes:    1 + g.rng.Intn(32),
			Estimate: est,
			Runtime:  1 + g.rng.Int63n(est),
		}
	}
	return specs
}

// target is one rung of the serving stack that can take the operation
// stream: the session, the store, the HTTP handler, or a connection to
// a listening server (the jobschedd child or an in-process one).
type target interface {
	// submit returns how many jobs were accepted as pending and the last
	// job id issued.
	submit(specs []serve.JobSpec) (pending int, lastID int64, err error)
	advance(to int64) error
}

func countPending(rs []serve.SubmitResult) (pending int, lastID int64) {
	for _, r := range rs {
		if r.Status == serve.StatusPending {
			pending++
		}
		lastID = r.ID
	}
	return pending, lastID
}

// httpTarget drives a listening server over one keep-alive connection.
type httpTarget struct{ c *client }

// submitBody is the JSON body of a submission.
func submitBody(specs []serve.JobSpec) ([]byte, error) {
	return json.Marshal(map[string]any{"jobs": specs})
}

func (t httpTarget) submit(specs []serve.JobSpec) (int, int64, error) {
	body, err := submitBody(specs)
	if err != nil {
		return 0, 0, err
	}
	return t.post(specs[0].User, body)
}

// post sends an already encoded submission, so that a timed caller
// measures from the request write.
func (t httpTarget) post(user string, body []byte) (int, int64, error) {
	var resp struct {
		Results []serve.SubmitResult `json:"results"`
	}
	if err := t.c.do("POST", "/v1/sessions/"+sessionName+"/jobs", user, body, &resp); err != nil {
		return 0, 0, err
	}
	p, last := countPending(resp.Results)
	return p, last, nil
}

func (t httpTarget) advance(to int64) error {
	return t.c.do("POST", "/v1/sessions/"+sessionName+"/advance", "", []byte(fmt.Sprintf(`{"to":%d}`, to)), nil)
}

func (t httpTarget) create(cfg serve.Config) error {
	body, err := json.Marshal(map[string]any{"name": sessionName, "config": cfg})
	if err != nil {
		return err
	}
	return t.c.do("POST", "/v1/sessions", "", body, nil)
}

func (t httpTarget) info() (serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := t.c.do("GET", "/v1/sessions/"+sessionName, "", nil, &info)
	return info, err
}

func (sh serveShape) config() serve.Config {
	return serve.Config{Nodes: machineNodes, MaxPending: sh.maxPending}
}

// preload brings a fresh session to the workload's state: historyJobs
// completed jobs (the DoneHistory plateau the per-ack fingerprint cost
// depends on), then, for the backlog shape, the deep queue. It uses
// large batches, which reach the same state as the 16-job stream in a
// fraction of the operations. It returns the clock and the jobs acked.
func (sh serveShape) preload(t target, sz sizes, seed int64) (clock int64, acked int, err error) {
	g := newOpStream(seed, 1000)
	const big = 500
	for done := 0; done < sz.historyJobs; done += big {
		n := big
		if sz.historyJobs-done < n {
			n = sz.historyJobs - done
		}
		p, _, err := t.submit(g.batch(n))
		if err != nil {
			return 0, 0, fmt.Errorf("pre-load: %w", err)
		}
		acked += p
		clock += int64(n) * 5000 / batchJobs
		if err := t.advance(clock); err != nil {
			return 0, 0, fmt.Errorf("pre-load: %w", err)
		}
	}
	// Let the tail of the history finish: the longest job runs 14 400 s.
	clock += 20_000
	if err := t.advance(clock); err != nil {
		return 0, 0, fmt.Errorf("pre-load: %w", err)
	}
	if sh.queued {
		// A tenth more than the target depth: backfilling from a deep
		// queue starts short jobs first, so the first operations drain it
		// faster than the stream refills it.
		want := sz.backlogQueue * 11 / 10
		for done := 0; done < want; done += 2 * big {
			n := 2 * big
			if want-done < n {
				n = want - done
			}
			p, _, err := t.submit(g.batch(n))
			if err != nil {
				return 0, 0, fmt.Errorf("pre-load: %w", err)
			}
			acked += p
		}
	}
	return clock, acked, nil
}

// sample is one completed client operation.
type sample struct {
	kind byte // 's' submit, 'a' advance, 'j' job lookup, 'i' session info
	end  time.Time
	ms   float64
	jobs int // jobs acked (submit)
	ok   bool
}

// loadState is shared by the connections of one closed loop.
type loadState struct {
	sh      serveShape
	clock0  int64
	ops     atomic.Int64 // operations begun: the next advance target
	lastID  atomic.Int64 // newest acked job id, for the reader
	stop    atomic.Bool
	mu      sync.Mutex
	samples []sample
	errs    []string
}

func (ls *loadState) record(batch []sample, errs []string) {
	ls.mu.Lock()
	ls.samples = append(ls.samples, batch...)
	ls.errs = append(ls.errs, errs...)
	ls.mu.Unlock()
}

// writer is one closed-loop client: submit 16 jobs, wait for the ack,
// advance the clock one step, wait, repeat.
func (ls *loadState) writer(t httpTarget, g *opStream) {
	var out []sample
	var errs []string
	for !ls.stop.Load() {
		specs := g.batch(batchJobs)
		body, err := submitBody(specs)
		if err != nil {
			errs = append(errs, err.Error())
			break
		}
		t0 := time.Now()
		p, last, err := t.post(specs[0].User, body)
		end := time.Now()
		out = append(out, sample{'s', end, ms(end.Sub(t0)), p, err == nil && p == len(specs)})
		if err != nil {
			errs = append(errs, err.Error())
		} else {
			ls.lastID.Store(last)
		}
		to := ls.clock0 + ls.ops.Add(1)*ls.sh.step
		t0 = time.Now()
		err = t.advance(to)
		end = time.Now()
		out = append(out, sample{'a', end, ms(end.Sub(t0)), 0, err == nil})
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	ls.record(out, errs)
}

// reader issues GETs: nine job lookups of a uniformly chosen recent id
// (recent enough to be inside the bounded history) to one session info.
func (ls *loadState) reader(t httpTarget, rng *rand.Rand, window int64) {
	var out []sample
	var errs []string
	for n := 0; !ls.stop.Load(); n++ {
		last := ls.lastID.Load()
		kind, path := byte('i'), "/v1/sessions/"+sessionName
		if n%10 != 9 {
			span := window
			if last < span {
				span = last
			}
			id := last - rng.Int63n(span)
			kind, path = 'j', fmt.Sprintf("/v1/sessions/%s/jobs/%d", sessionName, id)
		}
		t0 := time.Now()
		err := t.c.do("GET", path, "", nil, nil)
		end := time.Now()
		out = append(out, sample{kind, end, ms(end.Sub(t0)), 0, err == nil})
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	ls.record(out, errs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serveRun is one daemon with its session brought to the workload's
// state.
type serveRun struct {
	d       *daemon
	dataDir string
	clock   int64
	acked   int // jobs acked so far
}

// setupDaemon is the timed set-up of a serve workload: daemon start to
// healthy, session create, pre-load, and a short warm-up of the
// measuring connections' code path.
func (r *run) setupDaemon(sh serveShape, n int) (sr *serveRun, err error) {
	dataDir := filepath.Join(r.workDir, fmt.Sprintf("data-%d", n))
	d, err := r.work.startDaemon(dataDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.kill()
			sr, err = nil, fmt.Errorf("%w\njobschedd stderr:\n%s", err, d.stderr.String())
		}
	}()
	sr = &serveRun{d: d, dataDir: dataDir}
	t := httpTarget{newClient(d.addr)}
	defer t.c.close()
	if err := t.create(sh.config()); err != nil {
		return nil, err
	}
	if sr.clock, sr.acked, err = sh.preload(t, r.sz, r.seed); err != nil {
		return nil, err
	}
	g := newOpStream(r.seed, 2000)
	for i := 0; i < 32; i++ {
		p, _, err := t.submit(g.batch(batchJobs))
		if err == nil {
			sr.clock += sh.step
			err = t.advance(sr.clock)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		sr.acked += p
	}
	info, err := t.info()
	if err != nil {
		return nil, err
	}
	if info.Agg.Completed < int64(r.sz.historyJobs) {
		return nil, fmt.Errorf("pre-load completed %d jobs, want at least %d", info.Agg.Completed, r.sz.historyJobs)
	}
	if sh.queued && info.Pending < r.sz.backlogQueue {
		return nil, fmt.Errorf("pre-load queued %d jobs, want at least %d", info.Pending, r.sz.backlogQueue)
	}
	return sr, nil
}

// window is the statistics of one measured window.
type window struct {
	seconds float64
	cpu     time.Duration
	by      map[byte][]float64 // latencies by kind
	jobs    int
}

// load runs the closed loop for the given windows and returns one
// window's statistics each, plus failed and attempted operations.
func (r *run) load(sr *serveRun, sh serveShape, writers int, reader bool, windows int, winLen time.Duration) ([]window, int64, int64, []string, error) {
	ls := &loadState{sh: sh, clock0: sr.clock}
	ls.lastID.Store(int64(sr.acked))
	var wg sync.WaitGroup
	var clients []*client
	for i := 0; i < writers; i++ {
		c := newClient(sr.d.addr)
		clients = append(clients, c)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ls.writer(httpTarget{c}, newOpStream(r.seed, int64(i)))
		}(i)
	}
	if reader {
		c := newClient(sr.d.addr)
		clients = append(clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Ids of the last 8000 acked jobs are always inside the
			// 10 000-record history the session keeps.
			ls.reader(httpTarget{c}, rand.New(rand.NewSource(r.seed*7919+99)), int64(min(8000, r.sz.historyJobs*8/10)))
		}()
	}
	bounds := []time.Time{time.Now()}
	cpu0, err := procCPU(sr.d.pid())
	cpus := []time.Duration{cpu0}
	for w := 0; w < windows && err == nil; w++ {
		time.Sleep(time.Until(bounds[0].Add(time.Duration(w+1) * winLen)))
		bounds = append(bounds, time.Now())
		var c time.Duration
		c, err = procCPU(sr.d.pid())
		cpus = append(cpus, c)
	}
	ls.stop.Store(true)
	wg.Wait()
	for _, c := range clients {
		c.close()
	}
	if err != nil {
		return nil, 0, 0, nil, err
	}
	sr.clock += ls.ops.Load() * sh.step

	wins := make([]window, windows)
	for i := range wins {
		wins[i] = window{seconds: bounds[i+1].Sub(bounds[i]).Seconds(), cpu: cpus[i+1] - cpus[i], by: map[byte][]float64{}}
	}
	var failed, attempted int64
	for _, s := range ls.samples {
		attempted++
		if !s.ok {
			failed++
		}
		sr.acked += s.jobs
		i := sort.Search(windows, func(i int) bool { return !s.end.After(bounds[i+1]) })
		if i == windows {
			continue // finished after the last window closed: acked, not measured
		}
		wins[i].by[s.kind] = append(wins[i].by[s.kind], s.ms)
		wins[i].jobs += s.jobs
	}
	return wins, failed, attempted, ls.errs, nil
}

// windowStat is the median-of-windows statistic: f of each window.
func windowStat(wins []window, f func(window) float64) summary {
	var xs []float64
	for _, w := range wins {
		xs = append(xs, f(w))
	}
	return summarize(xs)
}

func pct(kind byte, p float64) func(window) float64 {
	return func(w window) float64 { return percentile(w.by[kind], p) }
}

func reads(w window) []float64 {
	return append(append([]float64(nil), w.by['j']...), w.by['i']...)
}

// userMetrics are the numbers of a window set a user of the daemon
// sees, under the names later issues cite.
func userMetrics(sh serveShape, wins []window, m map[string]summary) {
	m["jobs_per_s"] = windowStat(wins, func(w window) float64 { return float64(w.jobs) / w.seconds })
	m["submit_p50_ms"] = windowStat(wins, pct('s', 50))
	m["submit_p95_ms"] = windowStat(wins, pct('s', 95))
	m["advance_p50_ms"] = windowStat(wins, pct('a', 50))
	if sh.reader {
		m["read_p50_ms"] = windowStat(wins, func(w window) float64 { return percentile(reads(w), 50) })
		m["read_p95_ms"] = windowStat(wins, func(w window) float64 { return percentile(reads(w), 95) })
	}
	var all []float64
	for _, w := range wins {
		all = append(all, w.by['s']...)
	}
	m["serve.http.submit_p99_ms"] = one(percentile(all, 99))
	m["serve.http.submit_max_ms"] = one(percentile(all, 100))
}

// crashCheck is the service output check. With every connection
// quiesced it reads the session, SIGKILLs the daemon, restarts it on the
// same data directory and requires the recovered fingerprint, WAL
// position and submitted count to equal the pre-kill values and the
// clients' own count of acked jobs.
func (r *run) crashCheck(sr *serveRun, res *result, m map[string]summary) error {
	t := httpTarget{newClient(sr.d.addr)}
	before, err := t.info()
	if err != nil {
		return err
	}
	var stats serve.ServerStats
	if err := t.c.do("GET", "/v1/stats", "", nil, &stats); err != nil {
		return err
	}
	t.c.close()
	m["serve.http.busy_503"] = one(float64(stats.Shed))
	m["serve.http.limited_429"] = one(float64(stats.RateLimited))
	m["serve.http.timeouts"] = one(float64(stats.Timeouts))
	if rss, err := procPeakRSS(sr.d.pid()); err == nil {
		m["peak_mem_mb"] = one(rss)
	} else {
		return err
	}
	bytes, err := dirBytes(filepath.Join(sr.dataDir, "sessions", sessionName))
	if err != nil {
		return err
	}
	m["data_bytes_per_job"] = one(float64(bytes) / float64(sr.acked))

	sr.d.kill()
	t0 := time.Now()
	d2, err := r.work.startDaemon(sr.dataDir)
	if err != nil {
		res.Attempted++
		res.Failed++
		res.fail("daemon did not recover from kill -9: %v", err)
		return nil
	}
	m["recover_s"] = one(time.Since(t0).Seconds())
	sr.d = d2
	t = httpTarget{newClient(d2.addr)}
	defer t.c.close()
	after, err := t.info()
	if err != nil {
		return err
	}
	res.Attempted++
	switch {
	case after.Fingerprint != before.Fingerprint:
		res.Failed++
		res.fail("recovered fingerprint %s != %s before kill -9", after.Fingerprint, before.Fingerprint)
	case after.WALSeq != before.WALSeq:
		res.Failed++
		res.fail("recovered wal_seq %d != %d before kill -9", after.WALSeq, before.WALSeq)
	case after.Agg.Submitted != before.Agg.Submitted || after.Agg.Submitted != int64(sr.acked):
		res.Failed++
		res.fail("submitted: recovered %d, before kill %d, acked to clients %d", after.Agg.Submitted, before.Agg.Submitted, sr.acked)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// runServe measures one daemon workload: repeated set-ups (the last one
// is measured on), the windows, then the crash check.
func (r *run) runServe() (*result, error) {
	sh := serveShapes[r.workload]
	res := &result{Workload: r.workload, Seed: r.seed, Correct: true, Metrics: map[string]summary{}, Detail: map[string]summary{}}
	var setupS []float64
	var sr *serveRun
	for i := 0; i < r.sz.serveSetups; i++ {
		if sr != nil {
			sr.d.kill()
			os.RemoveAll(sr.dataDir)
		}
		t0 := time.Now()
		var err error
		if sr, err = r.setupDaemon(sh, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { sr.d.kill() }()
	res.Input = fmt.Sprintf("history=%d queued=%v step=%d writers=%d reader=%v", r.sz.historyJobs, sh.queued, sh.step, sh.writers, sh.reader)

	winLen := time.Duration(r.seconds / float64(r.sz.windows) * float64(time.Second))
	wins, failed, attempted, errs, err := r.load(sr, sh, sh.writers, sh.reader, r.sz.windows, winLen)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = attempted, failed
	if failed > 0 {
		res.fail("%d of %d operations failed, first: %s", failed, attempted, first(errs))
	}
	d := res.Detail
	userMetrics(sh, wins, d)
	jobs := 0
	for _, w := range wins {
		jobs += w.jobs
	}
	if jobs == 0 {
		return nil, fmt.Errorf("no job was acked in %d windows\njobschedd stderr:\n%s", len(wins), sr.d.stderr.String())
	}
	if err := r.crashCheck(sr, res, d); err != nil {
		return nil, fmt.Errorf("%w\njobschedd stderr:\n%s", err, sr.d.stderr.String())
	}
	if !res.Correct {
		fmt.Fprintf(r.log, "jobschedd stderr:\n%s\n", sr.d.stderr.String())
	}

	res.Metrics["setup_s"] = summarize(setupS)
	res.Metrics["jobs_per_s"] = d["jobs_per_s"]
	res.Metrics["peak_mem_mb"] = d["peak_mem_mb"]
	res.Metrics["cpu_ms_per_kjob"] = windowStat(wins, func(w window) float64 {
		return w.cpu.Seconds() * 1e3 / (float64(w.jobs) / 1e3)
	})
	delete(d, "jobs_per_s")
	delete(d, "peak_mem_mb")
	return res, nil
}

func first(xs []string) string {
	if len(xs) == 0 {
		return "(a submission was shed or partly refused)"
	}
	return xs[0]
}

// traceServe is the traced run of a daemon workload. The daemon is a
// separate process and is never instrumented, so the run has two
// halves: the real jobschedd child — one connection first, for the
// latency the ladder must account for, then the workload's own closed
// loop and the crash check, which give the per-workload times a user
// sees — and the in-process ladder on the same state.
func (r *run) traceServe() (*result, error) {
	sh := serveShapes[r.workload]
	res := &result{Workload: r.workload, Seed: r.seed, Traced: true, Correct: true, Metrics: map[string]summary{}}
	r.tr = newTracer()
	root := r.tr.begin(r.workload, 0, 0)

	sp := r.tr.begin("setup", root, 0)
	sr, err := r.setupDaemon(sh, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.tr.end(sp)
	defer func() { sr.d.kill() }()
	res.Input = fmt.Sprintf("history=%d queued=%v step=%d writers=%d reader=%v", r.sz.historyJobs, sh.queued, sh.step, sh.writers, sh.reader)

	winLen := time.Duration(r.seconds / float64(r.sz.windows) * float64(time.Second))
	sp = r.tr.begin("daemon.closed_loop", root, 0)
	wins, failed, attempted, errs, err := r.load(sr, sh, sh.writers, sh.reader, 2, winLen)
	if err != nil {
		return nil, err
	}
	r.tr.end(sp)
	res.Attempted, res.Failed = attempted, failed
	sums := map[string]summary{}
	userMetrics(sh, wins, sums)
	sp = r.tr.begin("daemon.crash_check", root, 0)
	if err := r.crashCheck(sr, res, sums); err != nil {
		return nil, fmt.Errorf("%w\njobschedd stderr:\n%s", err, sr.d.stderr.String())
	}
	r.tr.end(sp)
	m := map[string]float64{}
	for k, s := range sums {
		m[k] = s.Value
	}
	// The untraced run reports these two as end-to-end metrics.
	delete(m, "jobs_per_s")
	delete(m, "peak_mem_mb")

	n := r.sz.ladderOps
	if sh.queued {
		n = r.sz.ladderDeep
	}
	sp = r.tr.begin("ladder", root, 0)
	if err := r.ladder(sh, n, sp, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	r.tr.end(sp)
	// One connection against the real daemon, recovered from the crash
	// check and still in the workload's state: the latency the in-process
	// rungs must account for. It runs right after the loopback rung so
	// that the two see the same machine.
	sp = r.tr.begin("daemon.one_connection", root, 0)
	solo, f2, a2, e2, err := r.load(sr, sh, 1, false, 1, winLen)
	if err != nil {
		return nil, err
	}
	r.tr.end(sp)
	res.Attempted, res.Failed = res.Attempted+a2, res.Failed+f2
	if res.Failed > 0 {
		res.fail("%d of %d operations failed, first: %s", res.Failed, res.Attempted, first(append(errs, e2...)))
	}
	if !res.Correct {
		fmt.Fprintf(r.log, "jobschedd stderr:\n%s\n", sr.d.stderr.String())
	}
	daemonUS := percentile(solo[0].by['s'], 50) * 1e3
	m["serve.daemon.submit_1conn_us"] = daemonUS
	m["serve.ladder.sum_us"] = m["serve.http.self_us"] + m["serve.server.self_us"] + m["serve.store.self_us"] +
		m["serve.session.submit_us"] + m["serve.wal.append_us"]
	m["serve.ladder.coverage"] = m["serve.ladder.sum_us"] / daemonUS
	m["benchmark.trace.overhead_share"] = float64(r.spanNS) / float64(r.replayNS)
	delete(m, "serve.http.submit_us")

	r.tr.end(root)
	r.emitLayers(res, m)
	return res, r.writeSpans()
}
