package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// planBody is a small, quickly-feasible planning request body the table
// cases mutate around.
const planBody = `{"model":"gnmt","rate":400,"batch":4,"requests":32,"seqlens":[4,7,9,12],"routings":["rr"],"max_replicas":4,"slo":{"min_throughput_rps":50}}`

func TestPlanHandlerTable(t *testing.T) {
	s := testServer(Options{})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{
			name:       "feasible plan with one routing",
			body:       planBody,
			wantStatus: http.StatusOK,
			wantInBody: `"bottleneck"`,
		},
		{
			name:       "default routing axis",
			body:       `{"model":"gnmt","rate":400,"batch":4,"requests":32,"seqlens":[4,7,9,12],"max_replicas":4,"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusOK,
			wantInBody: `"replicas"`,
		},
		{
			name:       "kv axis plans with the memory model",
			body:       `{"model":"gnmt","rate":400,"batch":4,"requests":32,"seqlens":[4,7,9,12],"routings":["rr"],"max_replicas":4,"kv_capacities_gb":[1],"slo":{"ttft_p99_us":1000000,"min_throughput_rps":10}}`,
			wantStatus: http.StatusOK,
			wantInBody: `"kv_capacity_gb": 1`,
		},
		{
			name:       "infeasible slo is 422",
			body:       `{"model":"gnmt","rate":400,"batch":4,"requests":32,"seqlens":[4,7,9,12],"routings":["rr"],"max_replicas":2,"slo":{"latency_p99_us":1}}`,
			wantStatus: http.StatusUnprocessableEntity,
			wantInBody: `"code":"infeasible"`,
		},
		{
			name:       "empty slo",
			body:       `{"model":"gnmt","rate":400,"slo":{}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "at least one target",
		},
		{
			name:       "ttft target without kv model",
			body:       `{"model":"gnmt","rate":400,"slo":{"ttft_p99_us":5000}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: `"code":"kv_capacity"`,
		},
		{
			name:       "kv routing without kv model",
			body:       `{"model":"gnmt","rate":400,"routings":["kv"],"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: `"code":"kv_capacity"`,
		},
		{
			name:       "negative max replicas",
			body:       `{"model":"gnmt","rate":400,"max_replicas":-1,"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "max_replicas must be positive",
		},
		{
			name:       "max replicas over the fleet limit",
			body:       `{"model":"gnmt","rate":400,"max_replicas":100,"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "replica limit",
		},
		{
			name:       "unknown routing",
			body:       `{"model":"gnmt","rate":400,"routings":["random"],"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown routing",
		},
		{
			name:       "unknown policy in axis",
			body:       `{"model":"gnmt","rate":400,"policies":["bogus"],"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown policy",
		},
		{
			name:       "non-positive kv capacity entry",
			body:       `{"model":"gnmt","rate":400,"kv_capacities_gb":[-1],"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: `"code":"kv_capacity"`,
		},
		{
			name:       "axis length limit",
			body:       `{"model":"gnmt","rate":400,"routings":["rr","rr","rr","rr","rr","rr","rr","rr","rr"],"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "entry limit",
		},
		{
			name:       "combination limit",
			body:       `{"model":"gnmt","rate":400,"policies":["fixed","dynamic","length"],"kv_capacities_gb":[1,2,3],"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "combination limit",
		},
		{
			name:       "negative queue cap",
			body:       `{"model":"gnmt","rate":400,"queue_cap":-1,"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "queue_cap",
		},
		{
			name:       "workload validation applies",
			body:       `{"model":"gnmt","rate":-1,"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "rate must be in",
		},
		{
			name:       "unknown model",
			body:       `{"model":"bert","rate":400,"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown model",
		},
		{
			name:       "unknown field rejected",
			body:       `{"model":"gnmt","rate":400,"replicas":3,"slo":{"min_throughput_rps":50}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown field",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s, "/v1/plan", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), tc.wantInBody) {
				t.Errorf("body %s missing %q", w.Body.String(), tc.wantInBody)
			}
		})
	}
}

func TestPlanGetMethodNotAllowed(t *testing.T) {
	s := testServer(Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/plan", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan = %d, want 405", w.Code)
	}
}

// TestPlanDeterministicAcrossRequests: planning is a pure function of
// the request — repeat requests must produce byte-identical bodies.
func TestPlanDeterministicAcrossRequests(t *testing.T) {
	s := testServer(Options{})
	first := postJSON(t, s, "/v1/plan", planBody)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", first.Code, first.Body.String())
	}
	second := postJSON(t, s, "/v1/plan", planBody)
	if first.Body.String() != second.Body.String() {
		t.Errorf("repeat plan request differs:\n%s\nvs\n%s", first.Body.String(), second.Body.String())
	}
}

// TestPlanClientRoundTrip drives /v1/plan through the typed client and
// checks the plan's invariants: a minimal replica count within bounds,
// SLO evidence for every target, and the machine-readable code on the
// infeasible path.
func TestPlanClientRoundTrip(t *testing.T) {
	ts := httptest.NewServer(testServer(Options{}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	req := PlanRequest{
		WorkloadSpec: WorkloadSpec{
			Model:    "gnmt",
			Rate:     400,
			Batch:    4,
			Requests: 32,
			SeqLens:  []int{4, 7, 9, 12},
		},
		SLO:         PlanSLO{MinThroughputRPS: 50, LatencyP99US: 400_000},
		MaxReplicas: 4,
		Routings:    []string{"rr", "jsq"},
	}
	resp, err := c.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != "gnmt" || resp.RatePerSec != 400 {
		t.Errorf("echo fields wrong: %+v", resp)
	}
	plan := resp.Plan
	if plan.Replicas < 1 || plan.Replicas > 4 {
		t.Errorf("replicas = %d outside [1, 4]", plan.Replicas)
	}
	if len(plan.SLO) != 2 {
		t.Errorf("plan reports %d SLO dimensions, want 2", len(plan.SLO))
	}
	for _, d := range plan.SLO {
		if !d.OK {
			t.Errorf("chosen plan violates %s: %+v", d.Name, d)
		}
	}
	if plan.Saturation.Bottleneck == "" || plan.Saturation.KneeRPS < 400 {
		t.Errorf("degenerate saturation analysis: %+v", plan.Saturation)
	}
	if plan.Evaluations <= 0 {
		t.Error("plan reports no probe evaluations")
	}

	// Infeasible targets surface as a typed 422 with the machine code.
	req.SLO = PlanSLO{LatencyP99US: 1}
	_, err = c.Plan(context.Background(), req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != CodeInfeasible {
		t.Errorf("status/code = %d/%q, want 422/%q", apiErr.Status, apiErr.Code, CodeInfeasible)
	}
}

// TestPlanResponseShape decodes a live response strictly: every field
// the server emits must exist in the typed structs.
func TestPlanResponseShape(t *testing.T) {
	s := testServer(Options{})
	w := postJSON(t, s, "/v1/plan", planBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	dec := json.NewDecoder(strings.NewReader(w.Body.String()))
	dec.DisallowUnknownFields()
	var resp PlanResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("typed PlanResponse does not cover the wire shape: %v", err)
	}
	if resp.Plan.Summary.Served == 0 {
		t.Errorf("plan summary served nothing: %+v", resp.Plan.Summary)
	}
}

// TestPlanSummaryIsFleetSummary holds a plan's evidence to /v1/fleet:
// the summary a plan reports must be the one /v1/fleet returns for the
// chosen fleet on the same workload. A probe that carried router state
// from one candidate to the next (po2's RNG, rr's cursor) answered for
// a router the fleet endpoint never builds. 97 requests leave rr's
// cursor off zero after most probes, and three replicas give po2 a
// real choice.
func TestPlanSummaryIsFleetSummary(t *testing.T) {
	s := testServer(Options{})
	const workload = `"model":"gnmt","rate":800,"batch":4,"requests":97,"seqlens":[4,7,7,9,12,12,12,15,4,9,21,21]`
	for _, routing := range []string{"rr", "po2"} {
		t.Run(routing, func(t *testing.T) {
			w := postJSON(t, s, "/v1/plan", fmt.Sprintf(`{%s,"routings":[%q],"max_replicas":8,"slo":{"latency_p99_us":120000}}`, workload, routing))
			if w.Code != http.StatusOK {
				t.Fatalf("plan status = %d: %s", w.Code, w.Body.String())
			}
			var plan PlanResponse
			if err := json.Unmarshal(w.Body.Bytes(), &plan); err != nil {
				t.Fatal(err)
			}
			if plan.Plan.Replicas != 3 {
				t.Fatalf("plan chose %d replicas, want the 3 this case is built around", plan.Plan.Replicas)
			}
			w = postJSON(t, s, "/v1/fleet", fmt.Sprintf(`{%s,"routing":%q,"replicas":%d}`, workload, routing, plan.Plan.Replicas))
			if w.Code != http.StatusOK {
				t.Fatalf("fleet status = %d: %s", w.Code, w.Body.String())
			}
			var fleet FleetResponse
			if err := json.Unmarshal(w.Body.Bytes(), &fleet); err != nil {
				t.Fatal(err)
			}
			got, _ := plan.Plan.Summary.Serialize()
			want, _ := fleet.Summary.Serialize()
			if !bytes.Equal(got, want) {
				t.Errorf("plan summary differs from /v1/fleet's for the chosen fleet:\nplan:\n%s\nfleet:\n%s", got, want)
			}
		})
	}
}
