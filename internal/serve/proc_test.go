package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemon wraps one jobschedd subprocess for the e2e crash tests.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "jobschedd")
	cmd := exec.Command("go", "build", "-o", bin, "jobsched/cmd/jobschedd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}
	return bin
}

func startDaemon(t *testing.T, bin, dataDir string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile, "-data", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	logs := &bytes.Buffer{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, logs: logs}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			kerr := d.cmd.Process.Kill()
			_ = kerr // already-dead processes are fine here
			werr := d.cmd.Wait()
			_ = werr // cleanup of an intentionally killed process
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && len(data) > 0 {
			d.base = "http://" + strings.TrimSpace(string(data))
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address; logs:\n%s", logs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) post(path string, body any) (*http.Response, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		cerr := resp.Body.Close()
		_ = cerr // body already fully read below
	}()
	var out bytes.Buffer
	_, rerr := out.ReadFrom(resp.Body)
	return resp, out.Bytes(), rerr
}

func (d *daemon) fingerprint(session string) (string, error) {
	resp, err := http.Get(d.base + "/v1/sessions/" + session)
	if err != nil {
		return "", err
	}
	defer func() {
		cerr := resp.Body.Close()
		_ = cerr // body already decoded
	}()
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("info: %s", resp.Status)
	}
	var info struct {
		Fingerprint string `json:"fingerprint"`
		WALSeq      uint64 `json:"wal_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s@%d", info.Fingerprint, info.WALSeq), nil
}

// TestDaemonKillMinus9Recovery is the tentpole acceptance test: kill -9
// the daemon — first at a quiescent point, then mid-traffic — and
// verify the restart replays to the exact acknowledged state, for an
// FCFS session and for a SMART session restored from a snapshot taken
// in the middle of a plan.
func TestDaemonKillMinus9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the daemon")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")

	// Phase 1: quiescent kill. Submit, capture the fingerprints, kill -9,
	// restart: the fingerprints must be identical. The SMART session's
	// jobs are wide enough to queue, so its snapshot (at the 16th of 22
	// records) holds a plan with jobs still waiting in it.
	d := startDaemon(t, bin, dataDir, "-snapshot-every", "16")
	sessions := map[string]map[string]any{
		"m": {"nodes": 64},
		"p": {"nodes": 64, "order": "SMART-FFIA", "start": "EASY-Backfilling"},
	}
	before := map[string]string{}
	for name, cfg := range sessions {
		if resp, body, err := d.post("/v1/sessions", map[string]any{"name": name, "config": cfg}); err != nil || resp.StatusCode != 201 {
			t.Fatalf("create %s: %v %s", name, err, body)
		}
		width := func(i int) int { return 1 + i%8 }
		if name == "p" {
			width = func(i int) int { return 16 + 13*i%48 }
		}
		for i := 0; i < 20; i++ {
			resp, body, err := d.post("/v1/sessions/"+name+"/jobs", map[string]any{"jobs": []map[string]any{
				{"nodes": width(i), "estimate": 100 + 10*i},
			}})
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("submit %s %d: %v %s", name, i, err, body)
			}
			if i == 9 || i == 19 {
				if resp, body, err := d.post("/v1/sessions/"+name+"/advance", map[string]int64{"to": int64(25 * (i + 1))}); err != nil || resp.StatusCode != 200 {
					t.Fatalf("advance %s: %v %s", name, err, body)
				}
			}
		}
		fp, err := d.fingerprint(name)
		if err != nil {
			t.Fatal(err)
		}
		before[name] = fp
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	werr := d.cmd.Wait()
	_ = werr // kill -9 makes a non-zero exit; that is the point

	d = startDaemon(t, bin, dataDir)
	for name := range sessions {
		after, err := d.fingerprint(name)
		if err != nil {
			t.Fatalf("recovery of %s failed: %v\nlogs:\n%s", name, err, d.logs)
		}
		if after != before[name] {
			t.Fatalf("%s after kill -9: %s, want %s", name, after, before[name])
		}
	}

	// Phase 2: kill mid-traffic. Concurrent submitters record which
	// submissions were acknowledged; every acked ID must survive.
	type ack struct {
		session string
		id      int64
	}
	var (
		mu    sync.Mutex
		acked []ack
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			session := []string{"m", "p"}[w%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, body, err := d.post("/v1/sessions/"+session+"/jobs", map[string]any{"jobs": []map[string]any{
					{"nodes": 1 + 7*w, "estimate": 60, "name": fmt.Sprintf("w%d-%d", w, i)},
				}})
				if err != nil {
					return // connection died at the kill: unacked, fine
				}
				if resp.StatusCode != 200 {
					continue
				}
				var sr struct {
					Results []struct {
						ID int64 `json:"id"`
					} `json:"results"`
				}
				if jerr := json.Unmarshal(body, &sr); jerr == nil && len(sr.Results) == 1 {
					mu.Lock()
					acked = append(acked, ack{session, sr.Results[0].ID})
					mu.Unlock()
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond) // let traffic build
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	werr = d.cmd.Wait()
	_ = werr // kill -9 exit is expected

	d = startDaemon(t, bin, dataDir)
	fp1 := map[string]string{}
	for name := range sessions {
		fp, err := d.fingerprint(name)
		if err != nil {
			t.Fatalf("recovery of %s after mid-traffic kill: %v\nlogs:\n%s", name, err, d.logs)
		}
		fp1[name] = fp
	}
	mu.Lock()
	ackedIDs := append([]ack(nil), acked...)
	mu.Unlock()
	if len(ackedIDs) == 0 {
		t.Fatal("no submissions were acked before the kill; the test raced to nothing")
	}
	for _, a := range ackedIDs {
		resp, err := http.Get(d.base + fmt.Sprintf("/v1/sessions/%s/jobs/%d", a.session, a.id))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		cerr := resp.Body.Close()
		_ = cerr // status code is all this check needs
		if code != 200 {
			t.Fatalf("acked job %s/%d lost by kill -9 (status %d)", a.session, a.id, code)
		}
	}

	// Recovery is deterministic: a second restart replays to the same
	// fingerprint.
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	werr = d.cmd.Wait()
	_ = werr // kill -9 exit is expected
	d = startDaemon(t, bin, dataDir)
	for name := range sessions {
		fp2, err := d.fingerprint(name)
		if err != nil {
			t.Fatal(err)
		}
		if fp1[name] != fp2 {
			t.Fatalf("two recoveries of %s's log disagree: %s vs %s", name, fp1[name], fp2)
		}
	}
}

// TestDaemonSIGTERMDrainsCleanly: SIGTERM refuses new work, flushes,
// and exits 0; the restart sees the identical state.
func TestDaemonSIGTERMDrainsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and builds the daemon")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, bin, dataDir)
	if resp, body, err := d.post("/v1/sessions", map[string]any{"name": "m", "config": map[string]any{"nodes": 16}}); err != nil || resp.StatusCode != 201 {
		t.Fatalf("create: %v %s", err, body)
	}
	if resp, body, err := d.post("/v1/sessions/m/jobs", map[string]any{"jobs": []map[string]any{{"nodes": 4, "estimate": 100}}}); err != nil || resp.StatusCode != 200 {
		t.Fatalf("submit: %v %s", err, body)
	}
	before, err := d.fingerprint("m")
	if err != nil {
		t.Fatal(err)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v\nlogs:\n%s", err, d.logs)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain within 30s\nlogs:\n%s", d.logs)
	}
	if !strings.Contains(d.logs.String(), "drained cleanly") {
		t.Fatalf("drain not logged:\n%s", d.logs)
	}

	d = startDaemon(t, bin, dataDir)
	after, err := d.fingerprint("m")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("state after SIGTERM drain: %s, want %s", after, before)
	}
}
