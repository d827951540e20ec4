package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"jobsched/internal/serve"
)

// The ladder replays one seeded operation stream against each rung of
// the serving stack in this process, every rung on its own copy of the
// workload's state: Session → WAL → Store → Server.ServeHTTP → a
// loopback HTTP server. The layers offer no seams between them, so a
// rung's self time is its median minus the median of the rung below.

type sessionTarget struct{ s *serve.Session }

func (t sessionTarget) submit(specs []serve.JobSpec) (int, int64, error) {
	rs, err := t.s.Submit(specs)
	p, last := countPending(rs)
	return p, last, err
}
func (t sessionTarget) advance(to int64) error { return t.s.Advance(to) }

type storeTarget struct{ st *serve.Store }

func (t storeTarget) submit(specs []serve.JobSpec) (int, int64, error) {
	rs, err := t.st.Submit(context.Background(), sessionName, specs)
	p, last := countPending(rs)
	return p, last, err
}
func (t storeTarget) advance(to int64) error {
	return t.st.Advance(context.Background(), sessionName, to)
}

// serverTarget calls the HTTP handler on an in-memory recorder: decode,
// admission, the store, the per-ack Info, encode — no socket.
type serverTarget struct{ srv *serve.Server }

func (t serverTarget) post(path, user string, body []byte, out any) error {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("X-User", user)
	rec := httptest.NewRecorder()
	t.srv.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return fmt.Errorf("POST %s: %d %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if out != nil {
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	return nil
}

func (t serverTarget) submit(specs []serve.JobSpec) (int, int64, error) {
	body, err := submitBody(specs)
	if err != nil {
		return 0, 0, err
	}
	var resp struct {
		Results []serve.SubmitResult `json:"results"`
	}
	if err := t.post("/v1/sessions/"+sessionName+"/jobs", specs[0].User, body, &resp); err != nil {
		return 0, 0, err
	}
	p, last := countPending(resp.Results)
	return p, last, nil
}

func (t serverTarget) advance(to int64) error {
	return t.post("/v1/sessions/"+sessionName+"/advance", "", []byte(fmt.Sprintf(`{"to":%d}`, to)), nil)
}

// rung is the timing of one replay.
type rung struct {
	submitUS, advanceUS []float64
	jobs                int
	walBytes            int64 // growth of the rung's log, where it has one
}

// replay sends n operations of the seeded stream to t and times each
// call. Every rung gets the same stream: the generator is re-seeded.
func (r *run) replay(name string, t target, sh serveShape, clock int64, n int, parent int, storeDir string) (rung, error) {
	g := newOpStream(r.seed, 0)
	var out rung
	walPath := filepath.Join(storeDir, "sessions", sessionName, "wal.jsonl")
	if storeDir != "" {
		size, err := fileSize(walPath)
		if err != nil {
			return out, err
		}
		out.walBytes = -size
	}
	for i := 0; i < n; i++ {
		specs := g.batch(batchJobs)
		t0 := r.tr.now()
		p, _, err := t.submit(specs)
		t1 := r.tr.now()
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		clock += sh.step
		err = t.advance(clock)
		t2 := r.tr.now()
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		r.tr.add(name+".submit", parent, int64(i), t0, t1)
		r.tr.add(name+".advance", parent, int64(i), t1, t2)
		r.replayNS += t2 - t0
		r.spanNS += r.tr.now() - t2
		out.submitUS = append(out.submitUS, float64(t1-t0)/1e3)
		out.advanceUS = append(out.advanceUS, float64(t2-t1)/1e3)
		out.jobs += p
	}
	if storeDir != "" {
		size, err := fileSize(walPath)
		if err != nil {
			return out, err
		}
		out.walBytes += size
	}
	return out, nil
}

// newStore opens a store the way jobschedd's default flags do and
// brings its session to the workload's state.
func (r *run) newStore(sh serveShape, dir string) (*serve.Store, int64, error) {
	st, err := serve.OpenStore(dir, serve.StoreOptions{SnapshotEvery: 256, IntakeDepth: 256})
	if err != nil {
		return nil, 0, err
	}
	if err := st.Create(sessionName, sh.config()); err != nil {
		return nil, 0, err
	}
	clock, _, err := sh.preload(storeTarget{st}, r.sz, r.seed)
	return st, clock, err
}

func closeStore(st *serve.Store) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return st.Drain(ctx)
}

// ladder measures every in-process rung and fills the serve.* layer
// metrics. n is the number of operations replayed per rung.
func (r *run) ladder(sh serveShape, n int, parent int, m map[string]float64) error {
	// Admission: jobschedd's default flags disable it (rate 0), so the
	// daemon pays a nil check. What is timed here is the token bucket
	// itself, as an operator who sets -rate would run it.
	b := serve.NewBuckets(1e6, 2e6, nil)
	var allow durations
	for i := 0; i < 10_000; i++ {
		t0 := time.Now()
		b.AllowN(fmt.Sprintf("u%d", i%users), batchJobs)
		allow.add(int64(time.Since(t0)))
	}
	m["serve.admission.allow_ns"] = allow.medianNS()

	// Session rung, and the state-sized operations on the same session.
	sess, err := serve.NewSession(sessionName, sh.config())
	if err != nil {
		return err
	}
	clock, _, err := sh.preload(sessionTarget{sess}, r.sz, r.seed)
	if err != nil {
		return err
	}
	sp := r.tr.begin("ladder.session", parent, 0)
	sessR, err := r.replay("serve.session", sessionTarget{sess}, sh, clock, n, sp, "")
	if err != nil {
		return err
	}
	r.tr.end(sp)
	var fpUS, capUS, restoreMS []float64
	var snap *serve.Snapshot
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sess.Fingerprint()
		fpUS = append(fpUS, us(time.Since(t0)))
		t0 = time.Now()
		snap = sess.Snapshot(uint64(2 * n))
		capUS = append(capUS, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := serve.RestoreSession(snap); err != nil {
			return err
		}
		restoreMS = append(restoreMS, ms(time.Since(t0)))
	}
	m["serve.session.submit_us"] = median(sessR.submitUS)
	m["serve.session.advance_us"] = median(sessR.advanceUS)
	m["serve.session.fingerprint_us"] = median(fpUS)
	m["serve.snapshot.capture_us"] = median(capUS)
	m["serve.session.restore_ms"] = median(restoreMS)
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return err
	}
	m["serve.snapshot.bytes"] = float64(len(data))

	// WAL rung: the records the same stream commits, one per fsync and
	// eight per fsync.
	if err := r.walRung(sh, n, m); err != nil {
		return err
	}

	// Store rung.
	storeDir := filepath.Join(r.workDir, "ladder-store")
	st, clock, err := r.newStore(sh, storeDir)
	if err != nil {
		return err
	}
	seq0, err := st.Info(sessionName)
	if err != nil {
		return err
	}
	sp = r.tr.begin("ladder.store", parent, 0)
	storeR, err := r.replay("serve.store", storeTarget{st}, sh, clock, n, sp, storeDir)
	if err != nil {
		return err
	}
	r.tr.end(sp)
	m["serve.store.submit_us"] = median(storeR.submitUS)
	m["serve.store.advance_us"] = median(storeR.advanceUS)
	m["serve.store.self_us"] = m["serve.store.submit_us"] - m["serve.session.submit_us"] - m["serve.wal.append_us"]
	m["serve.store.snapshot_stall_ms"] = snapshotStall(storeR, seq0.WALSeq)
	// Reopen a copy of the quiescent directory: what a restart after
	// kill -9 loads (a snapshot up to 255 records old plus the log).
	crashDir := filepath.Join(r.workDir, "ladder-crash")
	if err := copySession(storeDir, crashDir); err != nil {
		return err
	}
	if err := closeStore(st); err != nil {
		return err
	}
	t0 := time.Now()
	st2, err := serve.OpenStore(crashDir, serve.StoreOptions{SnapshotEvery: 256, IntakeDepth: 256})
	if err != nil {
		return err
	}
	m["serve.store.open_ms"] = ms(time.Since(t0))
	if err := closeStore(st2); err != nil {
		return err
	}
	t0 = time.Now()
	w, recs, err := serve.OpenWAL(filepath.Join(crashDir, "sessions", sessionName, "wal.jsonl"))
	if err != nil {
		return err
	}
	m["serve.wal.open_us_per_krec"] = us(time.Since(t0)) / (float64(len(recs)) / 1e3)
	if err := w.Close(); err != nil {
		return err
	}

	// Server rung.
	serverDir := filepath.Join(r.workDir, "ladder-server")
	st, clock, err = r.newStore(sh, serverDir)
	if err != nil {
		return err
	}
	sp = r.tr.begin("ladder.server", parent, 0)
	srvR, err := r.replay("serve.server", serverTarget{serve.NewServer(st, serve.ServerOptions{})}, sh, clock, n, sp, serverDir)
	if err != nil {
		return err
	}
	r.tr.end(sp)
	if err := closeStore(st); err != nil {
		return err
	}
	m["serve.server.submit_us"] = median(srvR.submitUS)
	m["serve.server.self_us"] = m["serve.server.submit_us"] - m["serve.store.submit_us"]

	// HTTP rung: the same handler behind a loopback listener in this
	// process, one keep-alive connection.
	httpDir := filepath.Join(r.workDir, "ladder-http")
	st, clock, err = r.newStore(sh, httpDir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: serve.NewServer(st, serve.ServerOptions{})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient(ln.Addr().String())
	sp = r.tr.begin("ladder.http", parent, 0)
	httpR, err := r.replay("serve.http", httpTarget{c}, sh, clock, n, sp, httpDir)
	r.tr.end(sp)
	c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	serr := hs.Shutdown(ctx)
	cancel()
	<-served
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	if err := closeStore(st); err != nil {
		return err
	}
	m["serve.http.submit_us"] = median(httpR.submitUS)
	m["serve.http.self_us"] = m["serve.http.submit_us"] - m["serve.server.submit_us"]

	// Exactness guard: the rungs have one writer each and are fed one
	// stream, so they must accept the same jobs and, where they keep a
	// log, write the same bytes.
	if sessR.jobs != storeR.jobs || storeR.jobs != srvR.jobs || srvR.jobs != httpR.jobs {
		return fmt.Errorf("rungs accepted %d/%d/%d/%d jobs from one stream", sessR.jobs, storeR.jobs, srvR.jobs, httpR.jobs)
	}
	if storeR.walBytes != srvR.walBytes || srvR.walBytes != httpR.walBytes {
		return fmt.Errorf("rungs logged %d/%d/%d bytes for one stream", storeR.walBytes, srvR.walBytes, httpR.walBytes)
	}
	m["serve.wal.bytes_per_job"] = float64(storeR.walBytes) / float64(storeR.jobs)
	return nil
}

// walRung appends the stream's records to a fresh log.
func (r *run) walRung(sh serveShape, n int, m map[string]float64) error {
	records := func() []serve.Record {
		g := newOpStream(r.seed, 0)
		var recs []serve.Record
		var clock int64
		for i := 0; i < n; i++ {
			recs = append(recs, serve.Record{Op: "submit", At: clock, Jobs: g.batch(batchJobs)})
			clock += sh.step
			recs = append(recs, serve.Record{Op: "advance", At: clock})
		}
		return recs
	}
	appendBy := func(file string, group int) ([]float64, error) {
		w, _, err := serve.OpenWAL(filepath.Join(r.workDir, file))
		if err != nil {
			return nil, err
		}
		defer w.Close()
		recs := records()
		var out []float64
		for i := 0; i+group <= len(recs); i += group {
			t0 := time.Now()
			if err := w.Append(recs[i : i+group]); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			if group > 1 || recs[i].Op == "submit" {
				out = append(out, us(d))
			}
		}
		return out, nil
	}
	single, err := appendBy("ladder-wal-1.jsonl", 1)
	if err != nil {
		return err
	}
	grouped, err := appendBy("ladder-wal-8.jsonl", 8)
	if err != nil {
		return err
	}
	m["serve.wal.append_us"] = median(single)
	m["serve.wal.append_group_us"] = median(grouped)
	return nil
}

// snapshotStall is the cost a snapshot puts on the caller behind it.
// With one caller the store snapshots inside the commit that makes the
// WAL position a multiple of 256, after that commit's ack: the next
// operation waits for it. The stall is the median latency of those
// next operations minus the median of all others.
func snapshotStall(r rung, seq0 uint64) float64 {
	var hit, rest []float64
	seq := seq0
	for i := range r.submitUS {
		for _, us := range []float64{r.submitUS[i], r.advanceUS[i]} {
			if seq > 0 && seq%256 == 0 {
				hit = append(hit, us)
			} else {
				rest = append(rest, us)
			}
			seq++
		}
	}
	if len(hit) == 0 {
		return 0
	}
	return (median(hit) - median(rest)) / 1e3
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// copySession copies the files of the bench session from one data
// directory to a fresh one.
func copySession(from, to string) error {
	src := filepath.Join(from, "sessions", sessionName)
	dst := filepath.Join(to, "sessions", sessionName)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
