package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, sopt StoreOptions, opt ServerOptions) (*Server, *Store) {
	t.Helper()
	store, err := OpenStore(t.TempDir(), sopt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := store.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return NewServer(store, opt), store
}

func doJSON(t *testing.T, srv http.Handler, method, path, user string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestServerEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t, StoreOptions{}, ServerOptions{})

	if w := doJSON(t, srv, "GET", "/healthz", "", nil); w.Code != 200 {
		t.Fatalf("healthz: %d", w.Code)
	}
	w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "m1", Config: Config{Nodes: 64}})
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	// Duplicate name conflicts.
	if w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "m1", Config: Config{Nodes: 64}}); w.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", w.Code)
	}
	// Invalid config is a 400.
	if w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "bad", Config: Config{Nodes: -1}}); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid create: %d", w.Code)
	}
	// So is a start policy nobody knows, even under Garey&Graham, which
	// would ignore a valid one: the name is stored durably.
	w = doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "gg", Config: Config{Nodes: 8, Order: "Garey&Graham", Start: "nope"}})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "unknown start policy") {
		t.Fatalf("unknown start under G&G: %d %s", w.Code, w.Body)
	}
	// A plan order needs no opt-in: it restores exactly.
	w = doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "sm", Config: Config{Nodes: 8, Order: "SMART-FFIA"}})
	if w.Code != http.StatusCreated {
		t.Fatalf("SMART session: %d %s", w.Code, w.Body)
	}
	// The retired opt-in field is now an unknown field like any other.
	w = doJSON(t, srv, "POST", "/v1/sessions", "", map[string]any{"name": "sm2",
		"config": map[string]any{"nodes": 8, "order": "SMART-FFIA", "allow_unstable": true}})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "allow_unstable") {
		t.Fatalf("allow_unstable: %d %s", w.Code, w.Body)
	}

	w = doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "alice", submitRequest{Jobs: []JobSpec{
		{Name: "a", Nodes: 64, Estimate: 100},
		{Name: "b", Nodes: 8, Estimate: 50},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sr submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 2 || sr.Results[0].ID != 1 {
		t.Fatalf("submit results: %+v", sr)
	}

	if w := doJSON(t, srv, "POST", "/v1/sessions/m1/advance", "", advanceRequest{To: 100}); w.Code != http.StatusOK {
		t.Fatalf("advance: %d %s", w.Code, w.Body)
	}
	w = doJSON(t, srv, "GET", "/v1/sessions/m1/jobs/1", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("job get: %d", w.Code)
	}
	var ji JobInfo
	if err := json.Unmarshal(w.Body.Bytes(), &ji); err != nil {
		t.Fatal(err)
	}
	if ji.Status != StatusDone || ji.End != 100 {
		t.Fatalf("job 1: %+v", ji)
	}
	if w := doJSON(t, srv, "GET", "/v1/sessions/m1/jobs/99", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", w.Code)
	}
	if w := doJSON(t, srv, "GET", "/v1/sessions/nope", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown session: %d", w.Code)
	}

	// Submissions to a bad body are 400, not 500.
	req := httptest.NewRequest("POST", "/v1/sessions/m1/jobs", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", rec.Code)
	}
}

// TestServerSubmitAckClock: with an advancing writer racing the
// submitting one, every submit ack reports the clock its jobs were
// submitted at — the one GET .../jobs/{id} shows — not whatever the clock
// has moved on to by the time the ack is written.
func TestServerSubmitAckClock(t *testing.T) {
	srv, store := newTestServer(t, StoreOptions{}, ServerOptions{})
	if err := store.Create("m1", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	advanced := make(chan error, 1)
	go func() {
		for to := int64(1); ; to++ {
			select {
			case <-stop:
				advanced <- nil
				return
			default:
			}
			if err := store.Advance(context.Background(), "m1", to); err != nil {
				advanced <- err
				return
			}
		}
	}()
	for i := 0; i < 400; i++ {
		w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "ann", submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 5}}})
		if w.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
		var ack submitResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		ji, err := store.Job("m1", ack.Results[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Clock != ji.Submit {
			t.Fatalf("submit %d acked clock %d, job %d was submitted at %d", i, ack.Clock, ji.ID, ji.Submit)
		}
	}
	close(stop)
	if err := <-advanced; err != nil {
		t.Fatal(err)
	}
}

// TestServerRateLimit429: admission refusals are 429 with a concrete
// Retry-After, and waiting that long succeeds.
func TestServerRateLimit429(t *testing.T) {
	srv, _ := newTestServer(t, StoreOptions{}, ServerOptions{Rate: 100, Burst: 10})
	// Deterministic clock for the bucket.
	clk := newFakeClock()
	srv.buckets = NewBuckets(100, 10, clk.now)

	if w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "m1", Config: Config{Nodes: 64}}); w.Code != http.StatusCreated {
		t.Fatalf("create: %d", w.Code)
	}
	job := submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 60}}}
	for i := 0; i < 10; i++ {
		if w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "alice", job); w.Code != http.StatusOK {
			t.Fatalf("burst submit %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "alice", job)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst: %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1 (sub-second waits round up)", ra)
	}
	// Another user is unaffected.
	if w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "bob", job); w.Code != http.StatusOK {
		t.Fatalf("bob: %d", w.Code)
	}
	// After the quoted wait, alice is admitted again.
	clk.tick(time.Second)
	if w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "alice", job); w.Code != http.StatusOK {
		t.Fatalf("alice after backoff: %d", w.Code)
	}
	var st ServerStats
	if w := doJSON(t, srv, "GET", "/v1/stats", "", nil); w.Code != 200 {
		t.Fatal("stats")
	} else if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RateLimited != 1 || st.Admitted != 12 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServerOverBurstBatch413: a single batch larger than the per-user
// burst can never be admitted at any rate, so it is refused with a
// terminal 413 (split the batch) instead of a retriable 429 — a client
// honoring Retry-After would otherwise resubmit the same batch forever.
func TestServerOverBurstBatch413(t *testing.T) {
	srv, _ := newTestServer(t, StoreOptions{}, ServerOptions{Rate: 100, Burst: 2})
	if w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "m1", Config: Config{Nodes: 64}}); w.Code != http.StatusCreated {
		t.Fatalf("create: %d", w.Code)
	}
	big := submitRequest{Jobs: []JobSpec{
		{Nodes: 1, Estimate: 60}, {Nodes: 1, Estimate: 60}, {Nodes: 1, Estimate: 60},
	}}
	w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "alice", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-burst batch: %d %s, want 413", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("413 carries Retry-After %q; it must not invite a retry of the same batch", ra)
	}
	if !strings.Contains(w.Body.String(), "split") {
		t.Fatalf("413 body does not tell the client to split: %s", w.Body)
	}
	// The refusal spent no tokens: a burst-sized batch still goes through.
	ok := submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 60}, {Nodes: 1, Estimate: 60}}}
	if w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "alice", ok); w.Code != http.StatusOK {
		t.Fatalf("burst-sized batch after 413: %d %s", w.Code, w.Body)
	}
}

// TestServerShedsWhenIntakeFull: with the worker wedged and the bounded
// queue full, submissions get an immediate 503 + Retry-After instead of
// queueing without bound.
func TestServerShedsWhenIntakeFull(t *testing.T) {
	srv, store := newTestServer(t, StoreOptions{IntakeDepth: 2, BatchMax: 1}, ServerOptions{})
	if w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "m1", Config: Config{Nodes: 64}}); w.Code != http.StatusCreated {
		t.Fatalf("create: %d", w.Code)
	}
	h, err := store.get("m1")
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the worker: grab the session lock, feed it one work (BatchMax
	// 1, so it takes exactly that one and blocks in commit on the lock),
	// then fill the bounded queue behind it.
	h.mu.Lock()
	var pending []*work
	wedge := &work{ctx: context.Background(), op: opAdvance, at: 1, reply: make(chan workResult, 1)}
	h.intake <- wedge
	pending = append(pending, wedge)
	deadline := time.Now().Add(5 * time.Second)
	for len(h.intake) > 0 {
		if time.Now().After(deadline) {
			h.mu.Unlock()
			t.Fatal("worker never picked up the wedge work")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		w := &work{ctx: context.Background(), op: opAdvance, at: int64(10 + i), reply: make(chan workResult, 1)}
		h.intake <- w
		pending = append(pending, w)
	}
	// The HTTP path now sheds instantly (no blocking send).
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "u", submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 60}}})
	}()
	var w *httptest.ResponseRecorder
	select {
	case w = <-done:
	case <-time.After(5 * time.Second):
		h.mu.Unlock()
		t.Fatal("full intake blocked the request instead of shedding")
	}
	if w.Code != http.StatusServiceUnavailable {
		h.mu.Unlock()
		t.Fatalf("full intake: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		h.mu.Unlock()
		t.Fatal("503 without Retry-After")
	}
	h.mu.Unlock()
	// Unwedged, the queued works drain and answer.
	for _, p := range pending {
		select {
		case <-p.reply:
		case <-time.After(5 * time.Second):
			t.Fatal("queued work never answered after unwedge")
		}
	}
}

// TestServerDrainRefusesNewWork: draining answers 503 on mutations and
// on health, while reads keep serving.
func TestServerDrainRefusesNewWork(t *testing.T) {
	srv, store := newTestServer(t, StoreOptions{}, ServerOptions{})
	if w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "m1", Config: Config{Nodes: 8}}); w.Code != http.StatusCreated {
		t.Fatalf("create: %d", w.Code)
	}
	if w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "u", submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 60}}}); w.Code != http.StatusOK {
		t.Fatalf("submit: %d", w.Code)
	}
	store.StartDraining()
	if w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "u", submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 60}}}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", w.Code)
	}
	if w := doJSON(t, srv, "POST", "/v1/sessions", "", createRequest{Name: "m2", Config: Config{Nodes: 8}}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d, want 503", w.Code)
	}
	if w := doJSON(t, srv, "GET", "/healthz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", w.Code)
	}
	// Reads still work.
	if w := doJSON(t, srv, "GET", "/v1/sessions/m1", "", nil); w.Code != http.StatusOK {
		t.Fatalf("read while draining: %d", w.Code)
	}
	if w := doJSON(t, srv, "GET", "/v1/sessions/m1/jobs/1", "", nil); w.Code != http.StatusOK {
		t.Fatalf("job read while draining: %d", w.Code)
	}
}

// TestServerPanicContained: a handler panic answers 500 and the daemon
// keeps serving; the panic counter records it.
func TestServerPanicContained(t *testing.T) {
	srv, _ := newTestServer(t, StoreOptions{}, ServerOptions{})
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	if w := doJSON(t, srv, "GET", "/boom", "", nil); w.Code != http.StatusInternalServerError {
		t.Fatalf("panic: %d, want 500", w.Code)
	}
	if w := doJSON(t, srv, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("daemon down after handler panic: %d", w.Code)
	}
	if got := srv.panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d", got)
	}
}

// TestServerRequestTimeout504: a request whose budget expires mid-apply
// is cancelled through the interrupt hook and answers 504; the session
// recovers and keeps serving.
func TestServerRequestTimeout504(t *testing.T) {
	srv, store := newTestServer(t, StoreOptions{}, ServerOptions{RequestTimeout: time.Nanosecond})
	// Create through the store directly (the server's timeout would kill
	// even the create's Info read).
	if err := store.Create("m1", Config{Nodes: 8}); err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, srv, "POST", "/v1/sessions/m1/jobs", "u", submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 60}}})
	if w.Code != http.StatusGatewayTimeout && w.Code != http.StatusRequestTimeout {
		t.Fatalf("expired budget: %d %s, want 504/408", w.Code, w.Body)
	}
	// The daemon still serves with a sane budget: swap the timeout via a
	// fresh server over the same (recovered) store.
	srv2 := NewServer(store, ServerOptions{})
	if w := doJSON(t, srv2, "POST", "/v1/sessions/m1/jobs", "u", submitRequest{Jobs: []JobSpec{{Nodes: 1, Estimate: 60}}}); w.Code != http.StatusOK {
		t.Fatalf("submit after recovery: %d %s", w.Code, w.Body)
	}
	info, err := store.Info("m1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Agg.Submitted != 1 {
		t.Fatalf("submitted = %d, want exactly the acked one", info.Agg.Submitted)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{{0, 1}, {time.Millisecond, 1}, {time.Second, 1}, {1500 * time.Millisecond, 2}, {3 * time.Second, 3}}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestSessionNameValidation(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := store.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", "../etc", strings.Repeat("x", 100), ".hidden"} {
		if err := store.Create(bad, Config{Nodes: 8}); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := store.Create("ok-name_1.2", Config{Nodes: 8}); err != nil {
		t.Errorf("valid name refused: %v", err)
	}
}
