// Package server exposes the concurrent simulation engine over
// HTTP/JSON: the long-running form of SeqPoint's what-if queries. One
// seqpointd process amortizes the engine's profile cache across every
// request (and, with cache persistence, across restarts), so the
// expensive part of a query — pricing each unique (model, config,
// batch, SL) profile — happens once per key for the lifetime of the
// deployment.
//
// Endpoints:
//
//	POST /v1/simulate  — one training-run simulation → RunSummary JSON
//	POST /v1/sweep     — a (workload × config) grid → per-task results
//	POST /v1/seqpoint  — representative-iteration selection
//	POST /v1/serve     — online-serving simulation → latency percentiles
//	POST /v1/fleet     — multi-replica fleet simulation → routing/drop/scaling roll-up
//	POST /v1/plan      — SLO-driven capacity planning → minimal-cost fleet plan
//	GET  /healthz      — liveness probe
//	GET  /v1/stats     — engine cache + service counters
//	GET  /metrics      — Prometheus text-format metrics
//
// Three throttles protect the process: a bounded in-flight limiter
// (excess simulation requests get 429 instead of queueing unboundedly),
// a per-request timeout with context cancellation, and request
// coalescing — identical concurrent queries share one computation and
// one response, stacking on top of the engine's per-profile
// singleflight underneath.
//
// For operability the server also supports graceful drain: StartDrain
// flips it into a mode where new simulations are rejected with 503
// (code "draining") while in-flight ones run to completion, and
// Drain waits — bounded by its context — for every detached
// computation to finish, so a shutdown cache snapshot provably
// contains every profile priced by in-flight work.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seqpoint/internal/core"
	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/planner"
	"seqpoint/internal/serving"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxInflight    = 32
	DefaultRequestTimeout = 2 * time.Minute
)

// Hard request-shape bounds. Simulations cannot be cancelled once
// started (they run to completion to warm the cache), so anything that
// scales a request's work or memory super-linearly must be capped
// before it reaches the engine.
const (
	// maxRequestBytes caps a request body before JSON decoding touches
	// it; large sweeps fit in a fraction of this.
	maxRequestBytes = 8 << 20
	// maxSeqLen caps one synthetic sequence length: op-stream size grows
	// with SL, and the paper's corpora top out around a few thousand.
	maxSeqLen = 100000
	// maxSeqLens caps the synthetic-corpus sample count.
	maxSeqLens = 65536
	// maxBatch rejects absurd minibatch sizes before they allocate.
	maxBatch = 4096
	// maxSweepTasks bounds one sweep request's grid size.
	maxSweepTasks = 256
	// maxEpochs bounds one request's simulated epoch count.
	maxEpochs = 1000
)

// Options configures a Server; the zero value is fully usable.
type Options struct {
	// Engine is the simulation engine to serve; nil uses the shared
	// process-wide engine.
	Engine *engine.Engine
	// MaxInflight bounds concurrently executing simulation requests;
	// beyond it new work is rejected with 429. <= 0 uses
	// DefaultMaxInflight.
	MaxInflight int
	// RequestTimeout bounds one request's wall-clock time; <= 0 uses
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Engine == nil {
		o.Engine = engine.Shared()
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	return o
}

// flight is one in-progress computation shared by coalesced requests.
type flight struct {
	done   chan struct{}
	status int
	body   []byte
}

// Server serves the engine over HTTP. Build with New; a Server is an
// http.Handler safe for concurrent use.
type Server struct {
	opts Options
	eng  *engine.Engine
	mux  *http.ServeMux

	// sem is the in-flight limiter: one token per executing simulation.
	sem chan struct{}

	flightMu sync.Mutex
	flights  map[string]*flight

	requests  atomic.Int64
	coalesced atomic.Int64
	rejected  atomic.Int64
	inflight  atomic.Int64
	completed atomic.Int64

	// draining rejects new simulations while computeWG tracks the
	// detached ones still running; together they implement Drain.
	draining  atomic.Bool
	computeWG sync.WaitGroup

	metrics *metricsState
	// now is the clock, swappable by tests (latency observation and
	// snapshot age both read it).
	now func() time.Time
	// onJoin and onLead are nil outside tests, which set them before
	// serving to order the coalescing race: onJoin runs after a request
	// joins an in-progress flight, onLead before a flight's leader
	// computes.
	onJoin, onLead func()
}

// New builds a Server over opts.Engine.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		eng:     opts.Engine,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, opts.MaxInflight),
		flights: make(map[string]*flight),
		now:     time.Now,
	}
	routes := []struct {
		path string
		h    http.HandlerFunc
	}{
		{"/healthz", s.handleHealthz},
		{"/v1/stats", s.handleStats},
		{"/metrics", s.handleMetrics},
		{"/v1/simulate", post[SimulateRequest](s, "simulate")},
		{"/v1/sweep", post[SweepRequest](s, "sweep")},
		{"/v1/seqpoint", post[SeqPointRequest](s, "seqpoint")},
		{"/v1/serve", post[ServeRequest](s, "serve")},
		{"/v1/fleet", post[FleetRequest](s, "fleet")},
		{"/v1/plan", post[PlanRequest](s, "plan")},
	}
	paths := make([]string, len(routes))
	for i, rt := range routes {
		s.mux.HandleFunc(rt.path, rt.h)
		paths[i] = rt.path
	}
	s.metrics = newMetricsState(paths)
	return s
}

// ServeHTTP implements http.Handler. Every registered route passes
// through the metrics middleware, so per-endpoint request counts and
// latency histograms cover each handler uniformly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	em := s.metrics.endpoint(r.URL.Path)
	if em == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := s.now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	em.observe(sw.status, s.now().Sub(start).Seconds())
}

// StartDrain flips the server into drain mode: every subsequent
// simulation request is rejected with 503 and wire code "draining"
// (counted as rejected), while already-running computations continue.
// Drain mode is one-way; a draining server is shutting down.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain enters drain mode and waits for every detached computation to
// finish, bounded by ctx. After a nil return the server is quiescent:
// no simulation goroutine is running, so an engine cache snapshot
// taken now contains every profile priced by in-flight work.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.computeWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain interrupted with %d simulations still in flight: %w",
			s.inflight.Load(), ctx.Err())
	}
}

// Stats snapshots the service and engine counters.
func (s *Server) Stats() StatsResponse {
	return StatsResponse{
		Engine:      s.eng.Stats(),
		Requests:    s.requests.Load(),
		Completed:   s.completed.Load(),
		Coalesced:   s.coalesced.Load(),
		Rejected:    s.rejected.Load(),
		Inflight:    s.inflight.Load(),
		MaxInflight: s.opts.MaxInflight,
		Draining:    s.draining.Load(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet, r.Method)
		return
	}
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, map[string]string{"status": status})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet, r.Method)
		return
	}
	writeJSON(w, s.Stats())
}

// A postRequest is one POST endpoint's request type. resolve is all the
// endpoint adds to the shared request path: it normalizes and checks
// the decoded request and builds the computation over eng. It returns
// the normalized request, which is the coalescing identity; any error
// it returns is a 400.
type postRequest interface {
	resolve(eng *engine.Engine) (id any, compute func() (any, error), err error)
}

// post is the request path of every POST endpoint: strict decoding,
// the endpoint's resolve, then the computation under execute's
// throttles. A computed value is the 2xx body; an error maps to its
// status in computeFailure.
func post[Req postRequest](s *Server, endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !s.decodePost(w, r, &req) {
			return
		}
		id, compute, err := req.resolve(s.eng)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		status, body := s.execute(r.Context(), coalesceKey(endpoint, id), func() (int, []byte) {
			v, err := compute()
			if err != nil {
				return computeFailure(err)
			}
			return marshalBody(v)
		})
		writeRaw(w, status, body)
	}
}

// computeFailure maps a computation's error to its response: a request
// whose own KV cache exceeds the capacity is the client's 400, an SLO
// no candidate fleet meets is 422, and anything else is a 500.
func computeFailure(err error) (int, []byte) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, serving.ErrKVCapacity):
		status, err = http.StatusBadRequest, withCode(CodeKVCapacity, err)
	case errors.Is(err, planner.ErrInfeasible):
		status = http.StatusUnprocessableEntity
	}
	return status, errorBody(status, err)
}

func (r SimulateRequest) resolve(eng *engine.Engine) (any, func() (any, error), error) {
	r = r.normalize()
	if err := r.validate(); err != nil {
		return nil, nil, err
	}
	spec, hw, err := buildSpec(r)
	if err != nil {
		return nil, nil, err
	}
	return r, func() (any, error) {
		run, err := eng.Simulate(spec, hw)
		if err != nil {
			return nil, err
		}
		return run.Summary(), nil
	}, nil
}

func (r SeqPointRequest) resolve(eng *engine.Engine) (any, func() (any, error), error) {
	r.SimulateRequest = r.SimulateRequest.normalize()
	if err := r.validate(); err != nil {
		return nil, nil, err
	}
	method := r.Method
	if method == "" {
		method = "seqpoint"
	}
	var selectFn func([]core.SLRecord) (core.Selection, error)
	switch method {
	case "seqpoint":
		opts := core.Options{
			MaxUniqueNoBinning: r.MaxUniqueNoBinning,
			InitialBins:        r.InitialBins,
			ErrorThresholdPct:  r.ErrorThresholdPct,
		}
		selectFn = func(recs []core.SLRecord) (core.Selection, error) { return core.Select(recs, opts) }
	case "frequent":
		selectFn = core.Frequent
	case "median":
		selectFn = core.Median
	case "worst":
		selectFn = core.Worst
	default:
		return nil, nil, fmt.Errorf("unknown method %q (want seqpoint, frequent, median or worst)", r.Method)
	}
	spec, hw, err := buildSpec(r.SimulateRequest)
	if err != nil {
		return nil, nil, err
	}
	return r, func() (any, error) {
		run, err := eng.Simulate(spec, hw)
		if err != nil {
			return nil, err
		}
		recs, err := experiments.SLRecords(run, 0)
		if err != nil {
			return nil, err
		}
		sel, err := selectFn(recs)
		if err != nil {
			return nil, err
		}
		resp := SeqPointResponse{
			Model:     r.Model,
			Config:    r.Config,
			Method:    method,
			UniqueSLs: len(recs),
			Bins:      sel.Bins,
			Binned:    sel.Binned,
			ErrorPct:  sel.ErrorPct,
			Points:    make([]SeqPointResult, len(sel.Points)),
		}
		for i, p := range sel.Points {
			resp.Points[i] = SeqPointResult{SeqLen: p.SeqLen, Weight: p.Weight, IterTimeUS: p.Stat}
		}
		return resp, nil
	}, nil
}

func (r SweepRequest) resolve(eng *engine.Engine) (any, func() (any, error), error) {
	if len(r.Tasks) == 0 {
		return nil, nil, errors.New("sweep needs at least one task")
	}
	if len(r.Tasks) > maxSweepTasks {
		return nil, nil, fmt.Errorf("sweep of %d tasks exceeds the %d-task limit", len(r.Tasks), maxSweepTasks)
	}
	tasks := make([]engine.SweepTask, len(r.Tasks))
	for i, tr := range r.Tasks {
		tr = tr.normalize()
		r.Tasks[i] = tr
		if err := tr.validate(); err != nil {
			return nil, nil, fmt.Errorf("task %d: %w", i, err)
		}
		spec, hw, err := buildSpec(tr)
		if err != nil {
			return nil, nil, fmt.Errorf("task %d: %w", i, err)
		}
		tasks[i] = engine.SweepTask{Name: taskName(tr), Spec: spec, Config: hw}
	}
	// A sweep occupies one limiter slot regardless of its internal
	// parallelism; the engine's own pool bounds the real fan-out.
	return r, func() (any, error) {
		results := eng.Sweep(context.Background(), tasks, r.Parallelism)
		resp := SweepResponse{Results: make([]SweepTaskResult, len(results))}
		for i, res := range results {
			out := SweepTaskResult{Name: res.Task.Name}
			if res.Err != nil {
				out.Error = res.Err.Error()
			} else {
				sum := res.Run.Summary()
				out.Summary = &sum
			}
			resp.Results[i] = out
		}
		return resp, nil
	}, nil
}

// decodePost enforces the POST method and strict JSON decoding; it
// writes the error response itself and reports whether to continue.
// Bodies over the server's byte limit are a distinct failure mode —
// 413 with wire code "too_large" — so clients can tell "shrink the
// request" apart from "fix the request".
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, http.MethodPost, r.Method)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// seqLenBounds applies the synthetic-SL-pool limits shared by every
// endpoint that accepts a seqlens list.
func seqLenBounds(seqLens []int) error {
	if len(seqLens) > maxSeqLens {
		return fmt.Errorf("seqlens provides %d samples, more than the %d-sample limit", len(seqLens), maxSeqLens)
	}
	for _, sl := range seqLens {
		if sl <= 0 || sl > maxSeqLen {
			return fmt.Errorf("sequence length %d outside (0, %d]", sl, maxSeqLen)
		}
	}
	return nil
}

// validate applies the server's request-shape limits.
func (r SimulateRequest) validate() error {
	switch {
	case r.Batch <= 0:
		return fmt.Errorf("batch must be positive, got %d", r.Batch)
	case r.Batch > maxBatch:
		return fmt.Errorf("batch %d exceeds the server limit %d", r.Batch, maxBatch)
	case r.Epochs <= 0:
		return fmt.Errorf("epochs must be positive, got %d", r.Epochs)
	case r.Epochs > maxEpochs:
		return fmt.Errorf("epochs %d exceeds the server limit %d", r.Epochs, maxEpochs)
	case r.GPUs > r.Batch:
		return fmt.Errorf("gpus %d exceeds batch %d: every replica needs at least one sample", r.GPUs, r.Batch)
	}
	return seqLenBounds(r.SeqLens)
}

// coalesceKey canonicalizes a normalized request as the coalescing
// identity: endpoint + deterministic JSON of every request field.
func coalesceKey(endpoint string, req any) string {
	b, err := json.Marshal(req)
	if err != nil {
		// Requests are plain data structs; marshal cannot fail. Fall
		// back to never-coalesce rather than panicking.
		return fmt.Sprintf("%s|unkeyed|%p", endpoint, req)
	}
	return endpoint + "|" + string(b)
}

// execute runs compute under the server's three throttles: coalescing
// (an identical in-flight request shares its response), the bounded
// in-flight limiter (429 when saturated) and the per-request timeout.
// The computation itself is not abandoned on timeout — it finishes and
// populates the flight so later identical requests still benefit — but
// the waiting handler returns as soon as its context is done.
func (s *Server) execute(ctx context.Context, key string, compute func() (int, []byte)) (int, []byte) {
	if s.draining.Load() {
		// Draining: the process is shutting down, so no new simulation
		// may start (it could outlive the final cache snapshot). Counted
		// as rejected, like the limiter's 429.
		s.rejected.Add(1)
		status := http.StatusServiceUnavailable
		return status, errorBody(status, withCode(CodeDraining,
			errors.New("server is draining for shutdown; retry against another instance")))
	}

	ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	defer cancel()

	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		s.coalesced.Add(1)
		if s.onJoin != nil {
			s.onJoin()
		}
		select {
		case <-f.done:
			return f.status, f.body
		case <-ctx.Done():
			status := statusForContext(ctx.Err())
			return status, errorBody(status, ctx.Err())
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	finish := func(status int, body []byte) {
		f.status, f.body = status, body
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}

	select {
	case s.sem <- struct{}{}:
	default:
		// Saturated: reject this flight; coalesced followers (if any
		// raced in) receive the same 429.
		s.rejected.Add(1)
		finish(http.StatusTooManyRequests, errorBody(http.StatusTooManyRequests,
			fmt.Errorf("server at max in-flight simulations (%d); retry later", s.opts.MaxInflight)))
		return f.status, f.body
	}
	if err := ctx.Err(); err != nil {
		// The request was already cancelled before any work started.
		<-s.sem
		status := statusForContext(err)
		finish(status, errorBody(status, err))
		return f.status, f.body
	}

	s.requests.Add(1)
	s.inflight.Add(1)
	s.computeWG.Add(1)
	go func() {
		// The goroutine is detached from the handler (a timed-out waiter
		// returns while the computation finishes and warms the cache), so
		// a panicking simulation must be contained here: waiters get a
		// 500, the limiter token and inflight gauge are released, and the
		// daemon lives on. Deferred LIFO: recover + finish first, then
		// the semaphore token, then the drain join.
		defer s.computeWG.Done()
		defer func() { <-s.sem }()
		defer func() {
			s.inflight.Add(-1)
			s.completed.Add(1)
			if p := recover(); p != nil {
				status := http.StatusInternalServerError
				finish(status, errorBody(status, fmt.Errorf("simulation panicked: %v", p)))
			}
		}()
		if s.onLead != nil {
			s.onLead()
		}
		status, body := compute()
		finish(status, body)
	}()

	select {
	case <-f.done:
		return f.status, f.body
	case <-ctx.Done():
		status := statusForContext(ctx.Err())
		return status, errorBody(status, ctx.Err())
	}
}

// statusForContext maps a context error to a response status: timeouts
// are 504, client cancellations 503.
func statusForContext(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// marshalBody encodes a 2xx body as indented JSON with a trailing
// newline, the bytes trainer.RunSummary.Serialize writes; a value that
// fails to encode answers 500.
func marshalBody(v any) (int, []byte) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return http.StatusInternalServerError, errorBody(http.StatusInternalServerError, err)
	}
	return http.StatusOK, append(b, '\n')
}

// codedError carries a machine-readable code that overrides the
// status-derived default; attach one with withCode where the status
// alone is too coarse (e.g. KV-model misconfigurations are 400s, but
// clients want to distinguish them from generic shape errors).
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

func withCode(code string, err error) error {
	return &codedError{code: code, err: err}
}

// errorCode resolves the machine-readable code for a non-2xx response:
// an explicit withCode wins, otherwise the status maps to its generic
// code.
func errorCode(status int, err error) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusUnprocessableEntity:
		return CodeInfeasible
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusServiceUnavailable:
		return CodeCancelled
	case http.StatusGatewayTimeout:
		return CodeTimeout
	default:
		return CodeInternal
	}
}

func errorBody(status int, err error) []byte {
	return marshalErr(errorResponse{Error: err.Error(), Code: errorCode(status, err)})
}

func marshalErr(v errorResponse) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"internal encoding failure","code":"internal"}` + "\n")
	}
	return append(b, '\n')
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeRaw(w, status, errorBody(status, err))
}

// writeMethodNotAllowed writes the 405 response with the
// RFC-9110-required Allow header naming the one method the endpoint
// accepts.
func writeMethodNotAllowed(w http.ResponseWriter, allow, method string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed; use %s", method, allow))
}

func writeJSON(w http.ResponseWriter, v any) {
	status, body := marshalBody(v)
	writeRaw(w, status, body)
}
