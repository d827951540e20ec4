package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workArea owns everything a benchmark process leaves on disk and every
// child it starts: build outputs in <root>/.bench_build, and one fresh
// scratch directory below it that cleanup removes on every exit path.
type workArea struct {
	root  string
	build string // <root>/.bench_build
	dir   string // <build>/work-<random>, removed by cleanup
	bin   string // the jobschedd binary

	mu      sync.Mutex
	daemons map[*daemon]bool
	closed  bool
}

func newWorkArea(root string) (*workArea, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return nil, err
	}
	return &workArea{root: root, build: build, dir: dir, daemons: map[*daemon]bool{}}, nil
}

// runDir makes a fresh directory for one run; a run never sees the data
// of an earlier one.
func (w *workArea) runDir(name string) (string, error) {
	return os.MkdirTemp(w.dir, name+"-")
}

// cleanup kills every live daemon, waits for it, and removes the work
// area. It is safe to call more than once and from the signal handler.
func (w *workArea) cleanup() {
	w.mu.Lock()
	w.closed = true
	var live []*daemon
	for d := range w.daemons {
		live = append(live, d)
	}
	w.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	os.RemoveAll(w.dir)
}

// buildDaemon compiles cmd/jobschedd from the checkout's source. It is
// not part of any timed set-up.
func (w *workArea) buildDaemon() error {
	w.bin = filepath.Join(w.build, "jobschedd")
	cmd := exec.Command("go", "build", "-o", w.bin, "./cmd/jobschedd")
	cmd.Dir = w.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building jobschedd: %v\n%s", err, out)
	}
	return nil
}

// daemon is one jobschedd child process.
type daemon struct {
	work   *workArea
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
	waited chan struct{}
	once   sync.Once
}

// startDaemon executes jobschedd with default flags on a free loopback
// port and returns once /healthz answers 200.
func (w *workArea) startDaemon(dataDir string) (*daemon, error) {
	addrFile := dataDir + ".addr"
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	d := &daemon{work: w, stderr: &bytes.Buffer{}, waited: make(chan struct{})}
	d.cmd = exec.Command(w.bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-data", dataDir)
	d.cmd.Stderr = d.stderr
	// If this process is killed outright the child must not outlive it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, errors.New("work area already cleaned up")
	}
	if err := d.cmd.Start(); err != nil {
		w.mu.Unlock()
		return nil, fmt.Errorf("starting jobschedd: %w", err)
	}
	w.daemons[d] = true
	w.mu.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.waited)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.waited:
			return nil, fmt.Errorf("jobschedd exited during start-up:\n%s", d.stderr.String())
		default:
		}
		if d.addr == "" {
			if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
				d.addr = strings.TrimSpace(string(data))
			}
		}
		if d.addr != "" {
			resp, err := http.Get("http://" + d.addr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("jobschedd not healthy after 20s:\n%s", d.stderr.String())
}

// kill sends SIGKILL and waits until the process has ended.
func (d *daemon) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		<-d.waited
		d.work.mu.Lock()
		delete(d.work.daemons, d)
		d.work.mu.Unlock()
	})
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// client is one keep-alive connection to the daemon: its transport
// never opens a second one.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	return &client{base: "http://" + addr, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). Any other status is an error.
func (c *client) do(method, path, user string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if user != "" {
		req.Header.Set("X-User", user)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}
