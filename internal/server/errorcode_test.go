package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// decodeErrorBody parses a non-2xx response body into its typed form.
func decodeErrorBody(t *testing.T, body string) errorResponse {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatalf("error body %q is not valid JSON: %v", body, err)
	}
	if er.Error == "" {
		t.Fatalf("error body %q has an empty error message", body)
	}
	return er
}

// TestErrorCodes pins the machine-readable code on every handler
// path's failure modes: generic shape errors are bad_request, KV-model
// misconfigurations are kv_capacity, wrong methods are
// method_not_allowed, and the planner's no-solution outcome is
// infeasible.
func TestErrorCodes(t *testing.T) {
	s := testServer(Options{})
	oversized := `{"model":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantAllow  string
	}{
		{"simulate malformed body", http.MethodPost, "/v1/simulate", `not json`, http.StatusBadRequest, CodeBadRequest, ""},
		{"simulate bad model", http.MethodPost, "/v1/simulate", `{"model":"bert","batch":8,"epochs":1}`, http.StatusBadRequest, CodeBadRequest, ""},
		{"sweep empty", http.MethodPost, "/v1/sweep", `{"tasks":[]}`, http.StatusBadRequest, CodeBadRequest, ""},
		{"seqpoint bad method name", http.MethodPost, "/v1/seqpoint", `{"model":"gnmt","batch":8,"epochs":1,"method":"magic"}`, http.StatusBadRequest, CodeBadRequest, ""},
		{"serve bad rate", http.MethodPost, "/v1/serve", `{"model":"gnmt","rate":-1}`, http.StatusBadRequest, CodeBadRequest, ""},
		{"serve kv knobs without kv model", http.MethodPost, "/v1/serve", `{"model":"gnmt","rate":100,"decode_steps":8}`, http.StatusBadRequest, CodeKVCapacity, ""},
		{"serve invalid kv capacity", http.MethodPost, "/v1/serve", `{"model":"gnmt","rate":100,"kv_capacity_gb":-2}`, http.StatusBadRequest, CodeKVCapacity, ""},
		{"serve request above kv capacity", http.MethodPost, "/v1/serve", `{"model":"gnmt","rate":100,"requests":16,"seqlens":[40],"kv_capacity_gb":1e-12}`, http.StatusBadRequest, CodeKVCapacity, ""},
		{"fleet unknown routing", http.MethodPost, "/v1/fleet", `{"model":"gnmt","rate":100,"routing":"random"}`, http.StatusBadRequest, CodeBadRequest, ""},
		{"fleet kv routing without kv model", http.MethodPost, "/v1/fleet", `{"model":"gnmt","rate":100,"routing":"kv"}`, http.StatusBadRequest, CodeKVCapacity, ""},
		{"fleet disagg without kv model", http.MethodPost, "/v1/fleet", `{"model":"gnmt","rate":100,"replicas":3,"disagg":{"prefill":1,"decode":2}}`, http.StatusBadRequest, CodeKVCapacity, ""},
		{"plan ttft without kv model", http.MethodPost, "/v1/plan", `{"model":"gnmt","rate":100,"slo":{"ttft_p99_us":5000}}`, http.StatusBadRequest, CodeKVCapacity, ""},
		{"plan infeasible", http.MethodPost, "/v1/plan", `{"model":"gnmt","rate":400,"batch":4,"requests":32,"seqlens":[4,7],"routings":["rr"],"max_replicas":2,"slo":{"latency_p99_us":1}}`, http.StatusUnprocessableEntity, CodeInfeasible, ""},
		{"simulate oversized body", http.MethodPost, "/v1/simulate", oversized, http.StatusRequestEntityTooLarge, CodeTooLarge, ""},
		{"serve oversized body", http.MethodPost, "/v1/serve", oversized, http.StatusRequestEntityTooLarge, CodeTooLarge, ""},
		{"healthz wrong method", http.MethodPost, "/healthz", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed, http.MethodGet},
		{"stats wrong method", http.MethodPost, "/v1/stats", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed, http.MethodGet},
		{"metrics wrong method", http.MethodPost, "/metrics", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed, http.MethodGet},
		{"simulate wrong method", http.MethodGet, "/v1/simulate", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed, http.MethodPost},
		{"serve wrong method", http.MethodGet, "/v1/serve", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed, http.MethodPost},
		{"fleet wrong method", http.MethodGet, "/v1/fleet", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed, http.MethodPost},
		{"plan wrong method", http.MethodGet, "/v1/plan", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed, http.MethodPost},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if er := decodeErrorBody(t, w.Body.String()); er.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (body %s)", er.Code, tc.wantCode, w.Body.String())
			}
			// RFC 9110: every 405 must say which method would work.
			if got := w.Header().Get("Allow"); got != tc.wantAllow {
				t.Errorf("Allow header = %q, want %q", got, tc.wantAllow)
			}
		})
	}
}

// TestErrorCodesThrottles pins the limiter and context codes, which
// need server state rather than a request shape: a saturated limiter is
// overloaded, an expired deadline is timeout, a client cancellation is
// cancelled.
func TestErrorCodesThrottles(t *testing.T) {
	body := `{"model":"gnmt","rate":300,"batch":8,"requests":16,"seqlens":[4,7]}`

	t.Run("overloaded", func(t *testing.T) {
		s := testServer(Options{MaxInflight: 1})
		s.sem <- struct{}{} // occupy the only slot
		w := postJSON(t, s, "/v1/serve", body)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body.String())
		}
		if er := decodeErrorBody(t, w.Body.String()); er.Code != CodeOverloaded {
			t.Errorf("code = %q, want %q", er.Code, CodeOverloaded)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		s := testServer(Options{})
		ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/serve", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body.String())
		}
		if er := decodeErrorBody(t, w.Body.String()); er.Code != CodeTimeout {
			t.Errorf("code = %q, want %q", er.Code, CodeTimeout)
		}
	})

	t.Run("draining", func(t *testing.T) {
		s := testServer(Options{})
		s.StartDrain()
		w := postJSON(t, s, "/v1/serve", body)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body.String())
		}
		if er := decodeErrorBody(t, w.Body.String()); er.Code != CodeDraining {
			t.Errorf("code = %q, want %q", er.Code, CodeDraining)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		s := testServer(Options{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/serve", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body.String())
		}
		if er := decodeErrorBody(t, w.Body.String()); er.Code != CodeCancelled {
			t.Errorf("code = %q, want %q", er.Code, CodeCancelled)
		}
	})
}

// TestClientSurfacesCode: the typed client exposes the machine code on
// APIError for programmatic handling.
func TestClientSurfacesCode(t *testing.T) {
	ts := httptest.NewServer(testServer(Options{}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	_, err := c.Serve(context.Background(), ServeRequest{WorkloadSpec: WorkloadSpec{Model: "gnmt", Rate: 100, DecodeSteps: 8}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Code != CodeKVCapacity {
		t.Errorf("code = %q, want %q", apiErr.Code, CodeKVCapacity)
	}
}

// TestClientSurfacesTooLarge: an oversized request comes back as a
// typed 413 the caller can branch on, not a mystery transport error.
func TestClientSurfacesTooLarge(t *testing.T) {
	ts := httptest.NewServer(testServer(Options{}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	_, err := c.Simulate(context.Background(), SimulateRequest{
		Model: strings.Repeat("x", maxRequestBytes),
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", apiErr.Status)
	}
	if apiErr.Code != CodeTooLarge {
		t.Errorf("code = %q, want %q", apiErr.Code, CodeTooLarge)
	}
}
