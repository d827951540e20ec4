package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// ServerOptions tune the HTTP layer; zero values take defaults.
type ServerOptions struct {
	// RequestTimeout bounds each mutating request end to end — queue
	// wait, scheduling passes, WAL fsync (default 10s). Expiry cancels
	// the in-flight work through the session's interrupt hook.
	RequestTimeout time.Duration
	// Rate and Burst configure per-user admission (tokens = jobs per
	// second); Rate <= 0 admits everything.
	Rate  float64
	Burst float64
	// Logf receives request-layer warnings; nil discards them.
	Logf func(format string, args ...any)
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.Burst == 0 {
		o.Burst = 2 * o.Rate
	}
	return o
}

// ServerStats are the daemon's cumulative request counters, exposed at
// /v1/stats so the load generator can assert shedding is explicit
// (bounded 429/503, zero connection drops) rather than emergent.
type ServerStats struct {
	Requests    int64 `json:"requests"`
	Admitted    int64 `json:"admitted"`
	RateLimited int64 `json:"rate_limited"`
	Shed        int64 `json:"shed"`
	Rejected    int64 `json:"rejected"`
	Timeouts    int64 `json:"timeouts"`
	Panics      int64 `json:"panics"`
}

// Server is the HTTP front end over a Store.
type Server struct {
	store   *Store
	opt     ServerOptions
	buckets *Buckets
	mux     *http.ServeMux

	requests    atomic.Int64
	admitted    atomic.Int64
	rateLimited atomic.Int64
	shed        atomic.Int64
	rejected    atomic.Int64
	timeouts    atomic.Int64
	panics      atomic.Int64
}

// NewServer wires the API routes over the store.
func NewServer(store *Store, opt ServerOptions) *Server {
	opt = opt.withDefaults()
	s := &Server{
		store:   store,
		opt:     opt,
		buckets: NewBuckets(opt.Rate, opt.Burst, nil),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.handleInfo)
	s.mux.HandleFunc("POST /v1/sessions/{name}/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/sessions/{name}/advance", s.handleAdvance)
	s.mux.HandleFunc("GET /v1/sessions/{name}/jobs/{id}", s.handleJob)
	return s
}

// ServeHTTP implements http.Handler with the cross-cutting concerns:
// request counting, per-request timeout, and panic containment (one
// handler crash answers 500 without taking the daemon down).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
	defer cancel()
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			// Best-effort: if the handler already wrote, this is a no-op on
			// a hijacked/written connection and the client sees a truncated
			// response, which is still a visible failure.
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
	}()
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// writeJSON answers with a JSON body. A failed write means the client
// went away; the request-level counters already recorded the outcome.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	err := json.NewEncoder(w).Encode(v)
	_ = err // client disconnected mid-response; nothing actionable
}

type errorBody struct {
	Error string `json:"error"`
	// RetryAfter echoes the Retry-After header in seconds, when set.
	RetryAfter int64 `json:"retry_after,omitempty"`
}

// writeError maps a service error to its status code and backoff
// contract: 429/503 always carry Retry-After so well-behaved clients
// never need to guess.
func (s *Server) writeError(w http.ResponseWriter, err error, retryAfter time.Duration) {
	var (
		status int
		ra     int64
	)
	switch {
	case errors.Is(err, ErrRejected):
		status = http.StatusBadRequest
		s.rejected.Add(1)
	case errors.Is(err, ErrBatchTooLarge):
		// Deliberately no Retry-After: resubmitting the same batch can
		// never succeed, the client must split it.
		status = http.StatusRequestEntityTooLarge
		s.rejected.Add(1)
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	case errors.Is(err, ErrRateLimited):
		status = http.StatusTooManyRequests
		ra = retryAfterSeconds(retryAfter)
		s.rateLimited.Add(1)
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		ra = 1
		s.shed.Add(1)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrInterrupted):
		status = http.StatusGatewayTimeout
		s.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		// Client went away; 499-style. No standard code — use 408.
		status = http.StatusRequestTimeout
	default:
		status = http.StatusInternalServerError
	}
	if ra > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(ra, 10))
	}
	writeJSON(w, status, errorBody{Error: err.Error(), RetryAfter: ra})
}

// retryAfterSeconds rounds a backoff up to whole seconds (minimum 1:
// Retry-After has one-second granularity and 0 reads as "immediately").
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.store.isDraining() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ServerStats{
		Requests:    s.requests.Load(),
		Admitted:    s.admitted.Load(),
		RateLimited: s.rateLimited.Load(),
		Shed:        s.shed.Load(),
		Rejected:    s.rejected.Load(),
		Timeouts:    s.timeouts.Load(),
		Panics:      s.panics.Load(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"sessions": s.store.Names()})
}

type createRequest struct {
	Name   string `json:"name"`
	Config Config `json:"config"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err, 0)
		return
	}
	if err := s.store.Create(req.Name, req.Config); err != nil {
		s.writeError(w, err, 0)
		return
	}
	info, err := s.store.Info(req.Name)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Info(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

type submitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

type submitResponse struct {
	Results []SubmitResult `json:"results"`
	Clock   int64          `json:"clock"`
}

// handleSubmit is the admission-controlled write path: rate limit
// first (cheapest refusal), then the bounded intake queue, then the
// durable commit.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err, 0)
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, rejectf("serve: empty submission"), 0)
		return
	}
	user := r.Header.Get("X-User")
	if user == "" {
		user = "anonymous"
	}
	if max := s.buckets.MaxBatch(); max > 0 && len(req.Jobs) > max {
		// A batch over the burst is unsatisfiable at any rate — a 429
		// would have a well-behaved Retry-After-honoring client loop
		// forever on the same refusal.
		s.writeError(w, fmt.Errorf("%w: batch of %d jobs exceeds the per-user burst of %d, split the submission", ErrBatchTooLarge, len(req.Jobs), max), 0)
		return
	}
	if ok, wait := s.buckets.AllowN(user, len(req.Jobs)); !ok {
		s.writeError(w, fmt.Errorf("%w: user %s exceeds %g jobs/s", ErrRateLimited, user, s.opt.Rate), wait)
		return
	}
	res, err := s.store.submit(r.Context(), r.PathValue("name"), req.Jobs)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	s.admitted.Add(1)
	writeJSON(w, http.StatusOK, submitResponse{Results: res.results, Clock: res.clock})
}

type advanceRequest struct {
	To int64 `json:"to"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err, 0)
		return
	}
	name := r.PathValue("name")
	if err := s.store.Advance(r.Context(), name, req.To); err != nil {
		s.writeError(w, err, 0)
		return
	}
	info, err := s.store.Info(name)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, rejectf("serve: bad job id %q", r.PathValue("id")), 0)
		return
	}
	ji, err := s.store.Job(r.PathValue("name"), id)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, ji)
}

// decodeBody parses a JSON request body, bounding it so a misbehaving
// client cannot balloon memory (1 MiB is thousands of job specs).
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return rejectf("serve: bad request body: %v", err)
	}
	return nil
}
