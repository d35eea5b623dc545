package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"seqpoint/internal/engine"
)

// startBlockedCompute launches one detached computation through
// s.execute that signals once it is running, then waits for release
// before simulating req (warming the server engine's cache) and
// returning 200. It returns after the compute has provably started.
func startBlockedCompute(t *testing.T, s *Server, req SimulateRequest, release <-chan struct{}, done *sync.WaitGroup) {
	t.Helper()
	req = req.normalize()
	spec, hw, err := buildSpec(req)
	if err != nil {
		t.Fatalf("buildSpec: %v", err)
	}
	started := make(chan struct{})
	done.Add(1)
	go func() {
		defer done.Done()
		status, body := s.execute(context.Background(), coalesceKey("simulate", req), func() (int, []byte) {
			close(started)
			<-release
			if _, err := s.eng.Simulate(spec, hw); err != nil {
				return http.StatusInternalServerError, errorBody(http.StatusInternalServerError, err)
			}
			return http.StatusOK, []byte("{}\n")
		})
		if status != http.StatusOK {
			t.Errorf("in-flight compute finished with status %d: %s", status, body)
		}
	}()
	<-started
}

// TestDrainSnapshotContainsInflightWork is the drain acceptance test:
// requests are in flight when drain begins, new work is refused with
// the draining wire code, Drain joins every detached computation, and
// the cache snapshot taken afterwards contains every profile the
// in-flight requests priced — a fresh engine restored from it answers
// the same requests without a single recomputation. Finally, no
// simulation goroutine outlives the drain.
func TestDrainSnapshotContainsInflightWork(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := testServer(Options{})

	reqs := []SimulateRequest{
		{Model: "gnmt", Batch: 2, SeqLens: []int{4, 7}},
		{Model: "gnmt", Batch: 2, SeqLens: []int{5, 9, 9, 13}},
		{Model: "transformer", Batch: 2, SeqLens: []int{6, 11}},
	}
	release := make(chan struct{})
	var waiters sync.WaitGroup
	for _, req := range reqs {
		startBlockedCompute(t, s, req, release, &waiters)
	}

	// Mid-flight: begin draining. New simulations must be refused with
	// the typed draining code and counted as rejected.
	s.StartDrain()
	w := postJSON(t, s, "/v1/simulate", `{"model":"gnmt","batch":2,"seqlens":[4,7]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted new work: status %d, body %s", w.Code, w.Body.String())
	}
	if er := decodeErrorBody(t, w.Body.String()); er.Code != CodeDraining {
		t.Fatalf("draining rejection code = %q, want %q", er.Code, CodeDraining)
	}
	if got := s.Stats(); !got.Draining || got.Rejected != 1 {
		t.Fatalf("draining stats = %+v, want Draining=true Rejected=1", got)
	}

	// Healthz keeps answering (liveness) but reports the drain.
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !bytes.Contains(hw.Body.Bytes(), []byte("draining")) {
		t.Fatalf("healthz during drain = %s, want status draining", hw.Body.String())
	}

	// A bounded Drain with work still blocked reports the interruption.
	shortCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err := s.Drain(shortCtx)
	cancel()
	if err == nil {
		t.Fatal("Drain returned nil while computations were still blocked")
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waiters.Wait()

	st := s.Stats()
	if st.Inflight != 0 {
		t.Fatalf("inflight after drain = %d, want 0", st.Inflight)
	}
	if st.Requests != st.Completed || st.Requests != int64(len(reqs)) {
		t.Fatalf("requests=%d completed=%d after drain, want both %d", st.Requests, st.Completed, len(reqs))
	}

	// The post-drain snapshot must hold every profile the in-flight
	// requests priced: a restored engine re-answers them with zero new
	// misses.
	var snap bytes.Buffer
	if _, err := s.eng.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored := engine.New()
	if _, err := restored.ReadSnapshot(&snap); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	s2 := testServer(Options{Engine: restored})
	for i, req := range reqs {
		buf, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if w := postJSON(t, s2, "/v1/simulate", string(buf)); w.Code != http.StatusOK {
			t.Fatalf("restored replay %d: status %d, body %s", i, w.Code, w.Body.String())
		}
	}
	if misses := restored.Stats().Misses; misses != 0 {
		t.Fatalf("restored engine recomputed %d profiles; the drain snapshot was incomplete", misses)
	}

	// No simulation goroutine outlives the drain: the goroutine count
	// settles back to (about) the pre-test baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle after drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestComputePanicContained: a panic inside the detached compute
// goroutine must not kill the process, must answer waiters with a 500
// "internal" body, and must release the limiter token and inflight
// gauge so the server keeps serving.
func TestComputePanicContained(t *testing.T) {
	s := testServer(Options{MaxInflight: 1})

	status, body := s.execute(context.Background(), "panic-key", func() (int, []byte) {
		panic("seam: engine exploded")
	})
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("panic body %q is not JSON: %v", body, err)
	}
	if er.Code != CodeInternal {
		t.Fatalf("panic code = %q, want %q", er.Code, CodeInternal)
	}

	// The limiter token and inflight gauge came back, so the next
	// request computes normally on the only slot. The compute goroutine
	// returns the token after answering, so wait for it first.
	s.computeWG.Wait()
	st := s.Stats()
	if st.Inflight != 0 || len(s.sem) != 0 {
		t.Fatalf("panic leaked state: inflight=%d sem=%d", st.Inflight, len(s.sem))
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (panicked computes still complete)", st.Completed)
	}
	if w := postJSON(t, s, "/v1/simulate", `{"model":"gnmt","batch":2,"seqlens":[4,7]}`); w.Code != http.StatusOK {
		t.Fatalf("server wedged after panic: status %d, body %s", w.Code, w.Body.String())
	}
}

// TestServiceCounterConsistency runs a mixed burst — ok, coalesced,
// limiter-rejected, timed-out-waiter and drain-rejected requests —
// then drains and checks the books: requests == completions, inflight
// back to zero, every rejection attributed.
func TestServiceCounterConsistency(t *testing.T) {
	s := testServer(Options{MaxInflight: 2})
	joined := make(chan struct{})
	s.onJoin = func() { close(joined) }
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Two ok requests, distinct keys.
	for i, body := range []string{
		`{"model":"gnmt","batch":2,"seqlens":[4,7]}`,
		`{"model":"gnmt","batch":2,"seqlens":[5,9]}`,
	} {
		if w := postJSON(t, s, "/v1/simulate", body); w.Code != http.StatusOK {
			t.Fatalf("ok request %d: status %d, body %s", i, w.Code, w.Body.String())
		}
	}

	// A coalesced pair: the leader blocks until the follower has
	// provably joined the same flight.
	release := make(chan struct{})
	started := make(chan struct{})
	var pair sync.WaitGroup
	pair.Add(2)
	go func() {
		defer pair.Done()
		if status, _ := s.execute(context.Background(), "shared-key", func() (int, []byte) {
			close(started)
			<-release
			return http.StatusOK, []byte("{}\n")
		}); status != http.StatusOK {
			t.Errorf("coalescing leader status = %d, want 200", status)
		}
	}()
	<-started
	go func() {
		defer pair.Done()
		if status, _ := s.execute(context.Background(), "shared-key", func() (int, []byte) {
			t.Error("follower computed instead of coalescing")
			return http.StatusInternalServerError, nil
		}); status != http.StatusOK {
			t.Errorf("coalesced follower status = %d, want 200", status)
		}
	}()
	<-joined

	// A limiter rejection: fill the remaining slot, then knock.
	s.sem <- struct{}{}
	if w := postJSON(t, s, "/v1/simulate", `{"model":"gnmt","batch":2,"seqlens":[6,11]}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, body %s", w.Code, w.Body.String())
	}
	<-s.sem
	close(release)
	pair.Wait()

	// A timed-out waiter: the handler answers 504 while the computation
	// finishes off-path and is still counted as completed.
	slow := make(chan struct{})
	slowStarted := make(chan struct{})
	ctx, cancelSlow := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelSlow()
	status, _ := s.execute(ctx, "timeout-key", func() (int, []byte) {
		close(slowStarted)
		<-slow
		return http.StatusOK, []byte("{}\n")
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out waiter status = %d, want 504", status)
	}
	<-slowStarted
	close(slow)

	// Drain-mode rejection, then settle.
	s.StartDrain()
	w := postJSON(t, s, "/v1/simulate", `{"model":"gnmt","batch":2,"seqlens":[4,7]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain-mode request: status %d", w.Code)
	}
	if er := decodeErrorBody(t, w.Body.String()); er.Code != CodeDraining {
		t.Fatalf("drain-mode code = %q, want %q", er.Code, CodeDraining)
	}
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	st := s.Stats()
	if st.Requests != st.Completed {
		t.Errorf("requests %d != completions %d at quiescence", st.Requests, st.Completed)
	}
	// Accepted computations: 2 ok + coalescing leader + timed-out
	// waiter's flight. The follower coalesced; two more were rejected
	// (limiter, drain).
	if st.Requests != 4 {
		t.Errorf("requests = %d, want 4 accepted computations", st.Requests)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d at quiescence, want 0", st.Inflight)
	}
	if st.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1", st.Coalesced)
	}
	if st.Rejected != 2 {
		t.Errorf("rejected = %d, want 2 (limiter + drain)", st.Rejected)
	}
}
