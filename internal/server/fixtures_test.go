package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"seqpoint/internal/trainer"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite the committed request/response wire fixtures")

// The committed fixtures pin the wire protocol of every POST endpoint:
// the request files are what clients send, the response
// files are what this server version answers. Both must round-trip
// through the typed structs unchanged — a field the structs don't
// cover, a renamed tag, or a drifted simulation all fail here.
//
// Regenerate after an intentional wire or model change with:
//
//	go test ./internal/server -run TestWireFixtures -update-fixtures

// fixtureRequests builds the typed request for each endpoint; the
// shapes deliberately exercise the shared envelope plus each request's
// own fields.
func fixtureRequests() map[string]struct {
	path string
	req  any
} {
	workload := WorkloadSpec{
		Model:    "gnmt",
		Rate:     300,
		Batch:    8,
		Requests: 32,
		Seed:     7,
		SeqLens:  []int{4, 7, 9, 12},
	}
	kvCapacityGB := 0.02
	training := SimulateRequest{
		Model:   "gnmt",
		Batch:   4,
		Seed:    7,
		SeqLens: []int{4, 7, 9, 12, 12, 15, 20, 26},
	}
	return map[string]struct {
		path string
		req  any
	}{
		"simulate": {"/v1/simulate", training},
		// seqpoint logs enough unique SLs past n to pin a binned pick.
		"seqpoint": {"/v1/seqpoint", SeqPointRequest{
			SimulateRequest: SimulateRequest{
				Model:   "gnmt",
				Batch:   2,
				Seed:    7,
				SeqLens: []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27},
			},
			MaxUniqueNoBinning: 2,
			InitialBins:        2,
		}},
		"sweep": {"/v1/sweep", SweepRequest{Tasks: []SimulateRequest{
			training,
			{Model: "transformer", Batch: 2, Config: "#3", GPUs: 2, SeqLens: []int{5, 11, 16}},
		}}},
		"serve": {"/v1/serve", ServeRequest{WorkloadSpec: workload}},
		// serve_kv pins a KV-enabled single-queue summary: TTFT
		// percentiles, preemptions and per-tenant TTFT tails.
		"serve_kv": {"/v1/serve", ServeRequest{WorkloadSpec: WorkloadSpec{
			Model:        "gnmt",
			Rate:         300,
			Batch:        8,
			Policy:       "wfq",
			Requests:     48,
			Seed:         7,
			KVCapacityGB: &kvCapacityGB,
			DecodeSteps:  16,
			Tenants: []TenantSpec{
				{Class: "chat", Count: 2, Weight: 3, SeqLens: []int{4, 7, 9}},
				{Class: "bulk", Count: 1, Weight: 1, SeqLens: []int{12, 20}, Burst: 4},
			},
		}}},
		"fleet": {"/v1/fleet", FleetRequest{
			WorkloadSpec: workload,
			Replicas:     2,
			Routing:      "jsq",
			QueueCap:     16,
		}},
		"plan": {"/v1/plan", PlanRequest{
			WorkloadSpec: workload,
			SLO:          PlanSLO{LatencyP99US: 400_000, MinThroughputRPS: 50},
			MaxReplicas:  4,
			Routings:     []string{"rr", "jsq"},
		}},
	}
}

func fixturePath(name, kind string) string {
	return filepath.Join("testdata", name+"_"+kind+".json")
}

// marshalFixture renders a fixture the way the server renders bodies:
// indented JSON plus a trailing newline.
func marshalFixture(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestWireFixtures(t *testing.T) {
	s := testServer(Options{})
	for name, fx := range fixtureRequests() {
		t.Run(name, func(t *testing.T) {
			reqBytes := marshalFixture(t, fx.req)
			w := postJSON(t, s, fx.path, string(reqBytes))
			if w.Code != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", fx.path, w.Code, w.Body.String())
			}

			if *updateFixtures {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(fixturePath(name, "request"), reqBytes, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(fixturePath(name, "response"), w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s fixtures (%d + %d bytes)", name, len(reqBytes), w.Body.Len())
				return
			}

			// The committed request must equal the typed form — no field
			// was added, renamed or re-ordered without regenerating.
			wantReq, err := os.ReadFile(fixturePath(name, "request"))
			if err != nil {
				t.Fatalf("reading request fixture (regenerate with -update-fixtures): %v", err)
			}
			if !bytes.Equal(reqBytes, wantReq) {
				t.Errorf("typed %s request no longer matches its fixture:\n%s\nvs\n%s", name, reqBytes, wantReq)
			}

			// The live response must match the committed one byte for
			// byte — the simulation is deterministic and the wire shape
			// is pinned.
			wantResp, err := os.ReadFile(fixturePath(name, "response"))
			if err != nil {
				t.Fatalf("reading response fixture (regenerate with -update-fixtures): %v", err)
			}
			if !bytes.Equal(w.Body.Bytes(), wantResp) {
				t.Errorf("live %s response drifted from its fixture:\n%s\nvs\n%s", name, w.Body.String(), wantResp)
			}

			// Both fixtures round-trip strictly through the typed structs:
			// decode with unknown fields disallowed, re-encode, compare.
			roundTrip := func(fixture []byte, dst any) []byte {
				dec := json.NewDecoder(bytes.NewReader(fixture))
				dec.DisallowUnknownFields()
				if err := dec.Decode(dst); err != nil {
					t.Fatalf("typed struct does not cover fixture: %v", err)
				}
				return marshalFixture(t, dst)
			}
			switch fx.path {
			case "/v1/simulate":
				var req SimulateRequest
				var resp trainer.RunSummary
				if got := roundTrip(wantReq, &req); !bytes.Equal(got, wantReq) {
					t.Errorf("simulate request round-trip changed:\n%s\nvs\n%s", got, wantReq)
				}
				if got := roundTrip(wantResp, &resp); !bytes.Equal(got, wantResp) {
					t.Errorf("simulate response round-trip changed:\n%s\nvs\n%s", got, wantResp)
				}
			case "/v1/seqpoint":
				var req SeqPointRequest
				var resp SeqPointResponse
				if got := roundTrip(wantReq, &req); !bytes.Equal(got, wantReq) {
					t.Errorf("seqpoint request round-trip changed:\n%s\nvs\n%s", got, wantReq)
				}
				if got := roundTrip(wantResp, &resp); !bytes.Equal(got, wantResp) {
					t.Errorf("seqpoint response round-trip changed:\n%s\nvs\n%s", got, wantResp)
				}
			case "/v1/sweep":
				var req SweepRequest
				var resp SweepResponse
				if got := roundTrip(wantReq, &req); !bytes.Equal(got, wantReq) {
					t.Errorf("sweep request round-trip changed:\n%s\nvs\n%s", got, wantReq)
				}
				if got := roundTrip(wantResp, &resp); !bytes.Equal(got, wantResp) {
					t.Errorf("sweep response round-trip changed:\n%s\nvs\n%s", got, wantResp)
				}
			case "/v1/serve":
				var req ServeRequest
				var resp ServeResponse
				if got := roundTrip(wantReq, &req); !bytes.Equal(got, wantReq) {
					t.Errorf("serve request round-trip changed:\n%s\nvs\n%s", got, wantReq)
				}
				if got := roundTrip(wantResp, &resp); !bytes.Equal(got, wantResp) {
					t.Errorf("serve response round-trip changed:\n%s\nvs\n%s", got, wantResp)
				}
			case "/v1/fleet":
				var req FleetRequest
				var resp FleetResponse
				if got := roundTrip(wantReq, &req); !bytes.Equal(got, wantReq) {
					t.Errorf("fleet request round-trip changed:\n%s\nvs\n%s", got, wantReq)
				}
				if got := roundTrip(wantResp, &resp); !bytes.Equal(got, wantResp) {
					t.Errorf("fleet response round-trip changed:\n%s\nvs\n%s", got, wantResp)
				}
			case "/v1/plan":
				var req PlanRequest
				var resp PlanResponse
				if got := roundTrip(wantReq, &req); !bytes.Equal(got, wantReq) {
					t.Errorf("plan request round-trip changed:\n%s\nvs\n%s", got, wantReq)
				}
				if got := roundTrip(wantResp, &resp); !bytes.Equal(got, wantResp) {
					t.Errorf("plan response round-trip changed:\n%s\nvs\n%s", got, wantResp)
				}
			}
		})
	}
}
