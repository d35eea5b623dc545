package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"seqpoint/internal/trainer"
	"seqpoint/internal/workload"
)

// TestLimitsAreDaemonOnly pins the split between the daemon's size
// limits and the request types' shape rules: each row breaks one
// limit, so its endpoint refuses it as a 400 bad_request, while Spec —
// which trainsim and other library callers use — resolves the same
// request.
func TestLimitsAreDaemonOnly(t *testing.T) {
	s := testServer(Options{})
	big, err := workload.Generate(workload.GenSpec{
		Requests:   70_000,
		RatePerSec: 2000,
		Seed:       1,
		Cohorts:    []workload.Cohort{{Tenants: 1, Weight: 1, SeqLens: []int{4, 7, 9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bigPath := filepath.Join(t.TempDir(), "big.trace")
	if err := workload.SaveTrace(bigPath, big); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, path, body, wantErr string
	}{
		{
			name:    "batch",
			path:    "/v1/serve",
			body:    `{"model":"gnmt","rate":200,"batch":5000,"requests":16,"seqlens":[4,7,9]}`,
			wantErr: "batch 5000 exceeds the server limit 4096",
		},
		{
			name:    "requests",
			path:    "/v1/serve",
			body:    `{"model":"gnmt","rate":200,"batch":8,"requests":70000,"seqlens":[4,7,9]}`,
			wantErr: "requests 70000 exceeds the 65536-request limit",
		},
		{
			name:    "replicas",
			path:    "/v1/fleet",
			body:    `{"model":"gnmt","rate":200,"batch":8,"requests":16,"replicas":100,"seqlens":[4,7,9]}`,
			wantErr: "replicas 100 exceeds the 64-replica limit",
		},
		{
			name:    "autoscale max",
			path:    "/v1/fleet",
			body:    `{"model":"gnmt","rate":200,"batch":8,"requests":16,"autoscale":{"max":500},"seqlens":[4,7,9]}`,
			wantErr: "autoscale max 500 exceeds the 64-replica limit",
		},
		{
			name:    "plan max_replicas",
			path:    "/v1/plan",
			body:    `{"model":"gnmt","rate":200,"batch":8,"requests":16,"max_replicas":100,"seqlens":[4,7,9],"slo":{"min_throughput_rps":50}}`,
			wantErr: "max_replicas 100 exceeds the 64-replica limit",
		},
		{
			name:    "tenants per cohort",
			path:    "/v1/serve",
			body:    `{"model":"gnmt","rate":200,"batch":8,"requests":16,"tenants":[{"class":"chat","count":200,"seqlens":[4,7,9]}]}`,
			wantErr: `tenant cohort "chat" count must be in [1, 128], got 200`,
		},
		{
			name:    "trace file",
			path:    "/v1/serve",
			body:    fmt.Sprintf(`{"model":"gnmt","batch":8,"trace_file":%q}`, bigPath),
			wantErr: "trace file holds 70000 requests, more than the 65536-request limit",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s, tc.path, tc.body)
			var got errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
				t.Fatalf("decoding %s: %v", w.Body.String(), err)
			}
			if w.Code != http.StatusBadRequest || got.Code != CodeBadRequest || got.Error != tc.wantErr {
				t.Errorf("%s = %d %+v, want 400 %s %q", tc.path, w.Code, got, CodeBadRequest, tc.wantErr)
			}
			if err := resolveBody(tc.path, tc.body, s.eng); err != nil {
				t.Errorf("Spec refused the request: %v", err)
			}
		})
	}
}

// resolveBody decodes a serving-family body as its endpoint's request
// type and resolves it with that type's Spec.
func resolveBody(path, body string, src trainer.ProfileSource) error {
	var err error
	switch path {
	case "/v1/serve":
		var r ServeRequest
		if err = json.Unmarshal([]byte(body), &r); err == nil {
			_, _, err = r.Spec(src)
		}
	case "/v1/fleet":
		var r FleetRequest
		if err = json.Unmarshal([]byte(body), &r); err == nil {
			_, _, err = r.Spec(src)
		}
	case "/v1/plan":
		var r PlanRequest
		if err = json.Unmarshal([]byte(body), &r); err == nil {
			_, _, err = r.Spec(src)
		}
	default:
		err = fmt.Errorf("no request type for %s", path)
	}
	return err
}
