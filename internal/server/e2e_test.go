package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"seqpoint/internal/engine"
)

// TestE2EConcurrentDeterminism starts the server on a real listener
// (random port), fires many concurrent requests — identical and mixed —
// and asserts every response body is byte-identical to the sequential
// in-process path: the engine's determinism contract must survive the
// HTTP layer, the limiter and coalescing.
func TestE2EConcurrentDeterminism(t *testing.T) {
	eng := engine.New()
	srv := New(Options{Engine: eng, MaxInflight: 8})
	// Hold every flight's leader until some request has joined a
	// flight, so identical concurrent requests provably coalesce instead
	// of merely tending to overlap in time. Only three flights can lead
	// at once, one per query, so the fourth request always joins one.
	joined := make(chan struct{})
	var joinOnce sync.Once
	srv.onJoin = func() { joinOnce.Do(func() { close(joined) }) }
	srv.onLead = func() { <-joined }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	requests := []SimulateRequest{
		{Model: "gnmt", Batch: 8, SeqLens: testSeqLens},
		{Model: "gnmt", Batch: 8, SeqLens: testSeqLens, GPUs: 4},
		{Model: "seq2seq", Batch: 8, SeqLens: testSeqLens, Config: "#3"},
	}

	// Sequential ground truth through a fresh engine: what a one-shot
	// local process would answer.
	want := make([][]byte, len(requests))
	for i, req := range requests {
		spec, hw, err := buildSpec(req.normalize())
		if err != nil {
			t.Fatalf("building spec %d: %v", i, err)
		}
		ref := engine.New()
		ref.SetParallelism(1)
		spec.Profiles = ref
		run, err := ref.Simulate(spec, hw)
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		want[i], err = run.Summary().Serialize()
		if err != nil {
			t.Fatal(err)
		}
	}

	const perRequest = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(requests)*perRequest)
	for i, req := range requests {
		for j := 0; j < perRequest; j++ {
			wg.Add(1)
			go func(i int, req SimulateRequest) {
				defer wg.Done()
				body, status, err := rawSimulate(ts.URL, req)
				if err != nil {
					errs <- fmt.Errorf("request %d: %v", i, err)
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("request %d: HTTP %d: %s", i, status, body)
					return
				}
				if !bytes.Equal(body, want[i]) {
					errs <- fmt.Errorf("request %d: served body differs from sequential path:\n%s\nvs\n%s", i, body, want[i])
				}
			}(i, req)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The typed client must agree with the raw wire bytes.
	cl := NewClient(ts.URL, nil)
	sum, err := cl.Simulate(context.Background(), requests[0])
	if err != nil {
		t.Fatalf("client simulate: %v", err)
	}
	got, err := sum.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[0]) {
		t.Fatalf("client round-trip drifted from wire bytes:\n%s\nvs\n%s", got, want[0])
	}

	// 24 requests over 3 unique queries: coalescing and the cache must
	// have shared nearly all the work.
	stats := srv.Stats()
	if stats.Coalesced == 0 {
		t.Error("no requests were coalesced despite identical concurrent queries")
	}
	if stats.Engine.Hits == 0 {
		t.Errorf("no cache hits across identical queries: %+v", stats.Engine)
	}

	if err := cl.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
}

// TestE2EClientSweepAndSeqPoint exercises the remaining typed-client
// surface against a live server.
func TestE2EClientSweepAndSeqPoint(t *testing.T) {
	srv := New(Options{Engine: engine.New()})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient(ts.URL, nil)

	sweep, err := cl.Sweep(context.Background(), SweepRequest{
		Tasks: []SimulateRequest{
			{Model: "gnmt", Batch: 8, SeqLens: testSeqLens},
			{Model: "gnmt", Batch: 8, SeqLens: testSeqLens, Config: "#2"},
		},
		Parallelism: 2,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(sweep.Results) != 2 {
		t.Fatalf("sweep returned %d results, want 2", len(sweep.Results))
	}
	for i, res := range sweep.Results {
		if res.Error != "" || res.Summary == nil {
			t.Fatalf("sweep task %d failed: %+v", i, res)
		}
	}
	if sweep.Results[0].Summary.TrainUS >= sweep.Results[1].Summary.TrainUS {
		t.Fatalf("downclocked #2 should be slower than #1: %v vs %v",
			sweep.Results[0].Summary.TrainUS, sweep.Results[1].Summary.TrainUS)
	}

	sel, err := cl.SeqPoint(context.Background(), SeqPointRequest{
		SimulateRequest:    SimulateRequest{Model: "gnmt", Batch: 4, SeqLens: testSeqLens},
		MaxUniqueNoBinning: 2,
		ErrorThresholdPct:  5,
	})
	if err != nil {
		t.Fatalf("seqpoint: %v", err)
	}
	if len(sel.Points) == 0 || sel.UniqueSLs == 0 {
		t.Fatalf("empty selection: %+v", sel)
	}
	if !sel.Binned {
		t.Fatalf("selection over %d unique SLs with n=2 should have binned", sel.UniqueSLs)
	}

	// Error surfaces verbatim through the typed client.
	if _, err := cl.Simulate(context.Background(), SimulateRequest{Model: "nope"}); err == nil {
		t.Fatal("unknown model did not error through the client")
	}
}

// rawSimulate posts one simulate request and returns the raw body.
func rawSimulate(baseURL string, req SimulateRequest) ([]byte, int, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(baseURL+"/v1/simulate", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}
