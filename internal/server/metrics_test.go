package server

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, so request
// durations measured through it are exactly step and the /metrics
// histogram lands in a known bucket.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// parseMetrics reads the Prometheus text exposition format into a
// series -> value map, keyed by the full series name including labels.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q value: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

func scrapeMetrics(t *testing.T, s *Server) (map[string]float64, *httptest.ResponseRecorder) {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, body %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q, want text/plain exposition format", ct)
	}
	return parseMetrics(t, w.Body.String()), w
}

// TestMetricsEndpoint drives a known request mix through the server
// (with a deterministic clock), scrapes /metrics, and asserts the
// parsed families: per-endpoint request counters by status,
// per-endpoint latency histograms with coherent cumulative buckets,
// cache hit rate, service gauges, and snapshot age.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(Options{MaxInflight: 5})
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0), step: 5 * time.Millisecond}
	s.now = clock.Now

	okBody := `{"model":"gnmt","batch":2,"seqlens":[4,7]}`
	if w := postJSON(t, s, "/v1/simulate", okBody); w.Code != http.StatusOK {
		t.Fatalf("simulate: %s", w.Body.String())
	}
	if w := postJSON(t, s, "/v1/simulate", okBody); w.Code != http.StatusOK {
		t.Fatalf("repeat simulate: %s", w.Body.String())
	}
	if w := postJSON(t, s, "/v1/simulate", `{"model":"bert"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad-model simulate: status %d", w.Code)
	}
	wrongMethod := httptest.NewRecorder()
	s.ServeHTTP(wrongMethod, httptest.NewRequest(http.MethodGet, "/v1/simulate", nil))
	if wrongMethod.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate: status %d", wrongMethod.Code)
	}
	health := httptest.NewRecorder()
	s.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if health.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", health.Code)
	}
	s.ObserveSnapshot(42)
	// Computations are detached from their handlers and release the
	// inflight gauge after delivering the response, so wait for them
	// before asserting the gauge is back to zero.
	s.computeWG.Wait()

	m, _ := scrapeMetrics(t, s)

	wantCounts := map[string]float64{
		`seqpoint_requests_total{endpoint="/v1/simulate",status="200"}`:               2,
		`seqpoint_requests_total{endpoint="/v1/simulate",status="400"}`:               1,
		`seqpoint_requests_total{endpoint="/v1/simulate",status="405"}`:               1,
		`seqpoint_requests_total{endpoint="/healthz",status="200"}`:                   1,
		`seqpoint_request_duration_seconds_count{endpoint="/v1/simulate"}`:            4,
		`seqpoint_request_duration_seconds_bucket{endpoint="/v1/simulate",le="+Inf"}`: 4,
		// The fake clock makes every request take exactly 5ms.
		`seqpoint_request_duration_seconds_bucket{endpoint="/v1/simulate",le="0.005"}`: 4,
		`seqpoint_inflight`:         0,
		`seqpoint_max_inflight`:     5,
		`seqpoint_draining`:         0,
		`seqpoint_rejected_total`:   0,
		`seqpoint_coalesced_total`:  0,
		`seqpoint_snapshot_entries`: 42,
	}
	for series, want := range wantCounts {
		if got, ok := m[series]; !ok {
			t.Errorf("series %s missing", series)
		} else if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// The cumulative buckets must be monotone and end at _count.
	var edges []float64
	prefix := `seqpoint_request_duration_seconds_bucket{endpoint="/v1/simulate",le="`
	for series := range m {
		if strings.HasPrefix(series, prefix) && !strings.Contains(series, "+Inf") {
			e, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`), 64)
			if err != nil {
				t.Fatalf("unparseable le in %s: %v", series, err)
			}
			edges = append(edges, e)
		}
	}
	sort.Float64s(edges)
	if len(edges) != len(latencyEdges) {
		t.Fatalf("bucket series count = %d, want %d", len(edges), len(latencyEdges))
	}
	prev := 0.0
	for _, e := range edges {
		series := prefix + strconv.FormatFloat(e, 'g', -1, 64) + `"}`
		if m[series] < prev {
			t.Fatalf("cumulative bucket %s = %v decreased below %v", series, m[series], prev)
		}
		prev = m[series]
	}
	if inf := m[`seqpoint_request_duration_seconds_bucket{endpoint="/v1/simulate",le="+Inf"}`]; prev > inf {
		t.Fatalf("last finite bucket %v exceeds +Inf bucket %v", prev, inf)
	}

	// Cache counters: the repeat request produced hits; the first one
	// misses. The ratio is hits/(hits+misses), within [0, 1].
	if m[`seqpoint_cache_misses_total`] <= 0 {
		t.Errorf("cache_misses_total = %v, want > 0", m[`seqpoint_cache_misses_total`])
	}
	if m[`seqpoint_cache_hits_total`] <= 0 {
		t.Errorf("cache_hits_total = %v, want > 0 after a repeat request", m[`seqpoint_cache_hits_total`])
	}
	ratio := m[`seqpoint_cache_hit_ratio`]
	if ratio <= 0 || ratio > 1 {
		t.Errorf("cache_hit_ratio = %v, want in (0, 1]", ratio)
	}
	wantRatio := m[`seqpoint_cache_hits_total`] / (m[`seqpoint_cache_hits_total`] + m[`seqpoint_cache_misses_total`])
	if diff := ratio - wantRatio; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("cache_hit_ratio = %v, want hits/(hits+misses) = %v", ratio, wantRatio)
	}

	if age, ok := m[`seqpoint_snapshot_age_seconds`]; !ok {
		t.Error("snapshot_age_seconds missing after ObserveSnapshot")
	} else if age <= 0 {
		t.Errorf("snapshot_age_seconds = %v, want > 0 under the stepping clock", age)
	}

	// The scrape itself was recorded: a second scrape sees the first.
	m2, _ := scrapeMetrics(t, s)
	if got := m2[`seqpoint_requests_total{endpoint="/metrics",status="200"}`]; got != 1 {
		t.Errorf("second scrape: /metrics requests_total = %v, want 1", got)
	}
}

// TestMetricsBeforeSnapshot: a server that never persisted a cache
// exposes no snapshot-age series (age would be meaningless), and a
// fresh server's scrape parses cleanly with zero request series.
func TestMetricsBeforeSnapshot(t *testing.T) {
	s := testServer(Options{})
	m, _ := scrapeMetrics(t, s)
	if _, ok := m[`seqpoint_snapshot_age_seconds`]; ok {
		t.Error("snapshot_age_seconds present before any snapshot")
	}
	if _, ok := m[`seqpoint_snapshot_entries`]; ok {
		t.Error("snapshot_entries present before any snapshot")
	}
	if m[`seqpoint_cache_hit_ratio`] != 0 {
		t.Errorf("cold cache_hit_ratio = %v, want 0", m[`seqpoint_cache_hit_ratio`])
	}
}

// TestMetricsWrongMethod: /metrics is GET-only and says so via Allow.
func TestMetricsWrongMethod(t *testing.T) {
	s := testServer(Options{})
	w := postJSON(t, s, "/metrics", ``)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", w.Code)
	}
	if allow := w.Header().Get("Allow"); allow != http.MethodGet {
		t.Fatalf("Allow = %q, want GET", allow)
	}
	if er := decodeErrorBody(t, w.Body.String()); er.Code != CodeMethodNotAllowed {
		t.Fatalf("code = %q, want %q", er.Code, CodeMethodNotAllowed)
	}
}

// BenchmarkMetricsRender measures one /metrics render over a warmed
// server — the scrape-path cost a Prometheus poller pays every cycle.
func BenchmarkMetricsRender(b *testing.B) {
	s := testServer(Options{})
	for _, path := range s.metrics.paths {
		em := s.metrics.endpoint(path)
		for i := 0; i < 256; i++ {
			em.observe(200, float64(i)*0.001)
		}
	}
	s.ObserveSnapshot(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		s.renderMetrics(&sb)
	}
}

// TestMetricsDrainingGauge: the draining gauge flips with drain mode.
func TestMetricsDrainingGauge(t *testing.T) {
	s := testServer(Options{})
	s.StartDrain()
	m, _ := scrapeMetrics(t, s)
	if m[`seqpoint_draining`] != 1 {
		t.Errorf("seqpoint_draining = %v while draining, want 1", m[`seqpoint_draining`])
	}
}
