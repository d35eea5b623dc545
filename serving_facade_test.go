package seqpoint_test

// Facade coverage for the online-serving subsystem: the public
// re-exports must be enough to run the full serving story — build a
// trace, pick a policy, simulate, read the tail, and query the HTTP
// endpoint — without touching internal packages.

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"seqpoint"
)

func TestServingFacadeEndToEnd(t *testing.T) {
	corpus, err := seqpoint.Synthetic("facade-serve", []int{4, 7, 9, 12, 15, 21, 9, 7}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := seqpoint.PoissonTrace(corpus, 48, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := seqpoint.ParseBatchPolicy("length", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := seqpoint.NewEngine()
	res, err := seqpoint.SimulateServing(seqpoint.ServingSpec{
		Model:    seqpoint.NewGNMT(),
		Trace:    trace,
		Policy:   policy,
		Profiles: eng,
	}, seqpoint.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Requests != 48 || sum.Batches == 0 || sum.P99LatencyUS <= 0 {
		t.Fatalf("degenerate serving summary: %+v", sum)
	}
	if sum.P50LatencyUS > sum.P95LatencyUS || sum.P95LatencyUS > sum.P99LatencyUS {
		t.Errorf("percentiles not monotone: %+v", sum)
	}

	// The percentile primitive is public too.
	p, err := seqpoint.Percentile([]float64{1, 2, 3, 4}, 100)
	if err != nil || p != 4 {
		t.Errorf("Percentile = %v, %v; want 4, nil", p, err)
	}
}

func TestServingFacadeHTTP(t *testing.T) {
	srv := seqpoint.NewServer(seqpoint.ServerOptions{Engine: seqpoint.NewEngine()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := seqpoint.NewServiceClient(ts.URL, nil)
	resp, err := client.Serve(context.Background(), seqpoint.ServeRequest{WorkloadSpec: seqpoint.WorkloadSpec{
		Model:    "gnmt",
		Rate:     300,
		Batch:    8,
		Requests: 32,
		SeqLens:  []int{4, 7, 9, 12},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Summary.Requests != 32 || resp.Summary.ThroughputRPS <= 0 {
		t.Fatalf("degenerate serve response: %+v", resp)
	}

	// A validation failure surfaces the server's message through the
	// typed APIError.
	_, err = client.Serve(context.Background(), seqpoint.ServeRequest{WorkloadSpec: seqpoint.WorkloadSpec{Model: "gnmt", Rate: -1}})
	var apiErr *seqpoint.ServiceAPIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("want 400 *ServiceAPIError, got %v", err)
	}
}

// TestFleetFacadeEndToEnd runs the full fleet story through the public
// facade: routers, admission, autoscaling, the generalization witness,
// and the HTTP endpoint.
func TestFleetFacadeEndToEnd(t *testing.T) {
	corpus, err := seqpoint.Synthetic("facade-fleet", []int{4, 7, 9, 12, 15, 21, 9, 7}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := seqpoint.PoissonTrace(corpus, 64, 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := seqpoint.ParseBatchPolicy("dynamic", 8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	router, err := seqpoint.ParseRouting("jsq", 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := seqpoint.NewEngine()
	res, err := seqpoint.SimulateFleet(seqpoint.FleetSpec{
		Model:    seqpoint.NewGNMT(),
		Trace:    trace,
		Policy:   policy,
		Router:   router,
		Replicas: 2,
		QueueCap: 16,
		Autoscale: &seqpoint.FleetAutoscale{
			Min: 1, Max: 3, UpDepth: 4, DownDepth: 1, CooldownUS: 1000,
		},
		Profiles: eng,
	}, seqpoint.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Served+sum.Rejected != 64 || sum.ThroughputRPS <= 0 {
		t.Fatalf("degenerate fleet summary: %+v", sum)
	}
	if len(sum.PerReplica) != 3 {
		t.Fatalf("per-replica rows = %d, want 3 (autoscale max)", len(sum.PerReplica))
	}
}

func TestFleetFacadeHTTP(t *testing.T) {
	srv := seqpoint.NewServer(seqpoint.ServerOptions{Engine: seqpoint.NewEngine()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := seqpoint.NewServiceClient(ts.URL, nil)
	resp, err := client.Fleet(context.Background(), seqpoint.FleetRequest{
		WorkloadSpec: seqpoint.WorkloadSpec{
			Model:    "gnmt",
			Rate:     500,
			Batch:    8,
			Requests: 32,
			SeqLens:  []int{4, 7, 9, 12},
		},
		Replicas:  2,
		Routing:   "least",
		Autoscale: &seqpoint.FleetAutoscaleSpec{Max: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Routing != "least" || resp.Summary.Served+resp.Summary.Rejected != 32 {
		t.Fatalf("degenerate fleet response: %+v", resp)
	}

	_, err = client.Fleet(context.Background(), seqpoint.FleetRequest{
		WorkloadSpec: seqpoint.WorkloadSpec{Model: "gnmt", Rate: 100},
		Routing:      "random",
	})
	var apiErr *seqpoint.ServiceAPIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("want 400 *ServiceAPIError, got %v", err)
	}
}
