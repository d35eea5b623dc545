package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"seqpoint/internal/server"
)

// TestListsDeterministic checks that a list's bytes depend only on its
// workload, seed and length, and that a second seed gives another list
// with the same class mix.
func TestListsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, err := Generate(wl, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(wl, 7, 1)
		c, _ := Generate(wl, 8, 1)
		if a.Digest() != b.Digest() || a.Misses != b.Misses {
			t.Errorf("%s: seed 7 generated two different lists", wl)
		}
		if a.Digest() == c.Digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same list", wl)
		}
		if len(a.Requests) < minRequests || len(a.Requests)%blockSize[wl] != 0 {
			t.Errorf("%s: %d requests, want at least %d in whole blocks of %d", wl, len(a.Requests), minRequests, blockSize[wl])
		}
		if got, want := pathCounts(c), pathCounts(a); !equalCounts(got, want) {
			t.Errorf("%s: endpoint mix differs across seeds: %v vs %v", wl, got, want)
		}
		if (wl == wlWhatifCold) != (a.Misses > 0) || a.Misses != c.Misses {
			t.Errorf("%s: designed misses %d (seed 7) and %d (seed 8)", wl, a.Misses, c.Misses)
		}
	}
}

func pathCounts(l List) map[string]int {
	m := make(map[string]int)
	for _, r := range l.Requests {
		m[r.Path]++
	}
	return m
}

func equalCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestWarmListsStayInCover checks the invariant warm misses rest on:
// every warm request runs on config #1 and one GPU, at a batch the cover
// list primes, over sequence lengths of the model's warm universe.
func TestWarmListsStayInCover(t *testing.T) {
	for _, wl := range []string{wlInteractive, wlCapacity} {
		for _, seed := range []int64{1, 2, 3} {
			l, err := Generate(wl, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range l.Requests {
				var env struct {
					Model, Config string
					Batch, GPUs   int
					Eval          bool
					SeqLens       []int
					Tenants       []server.TenantSpec
				}
				if err := json.NewDecoder(bytes.NewReader(r.Body)).Decode(&env); err != nil {
					t.Fatal(err)
				}
				limit := warmServeBatch
				if r.Path == "/v1/simulate" || r.Path == "/v1/seqpoint" {
					limit = warmTrainBatch
				}
				warm := make(map[int]bool)
				for _, sl := range warmSLs(env.Model) {
					warm[sl] = true
				}
				for _, sl := range env.SeqLens {
					if !warm[sl] {
						t.Fatalf("%s seed %d request %d: SL %d outside the warm universe", wl, seed, i, sl)
					}
				}
				if env.Config != warmConfig || env.GPUs > 1 || env.Eval || env.Batch < 1 || env.Batch > limit || len(env.SeqLens) == 0 {
					t.Fatalf("%s seed %d request %d leaves the warm key space: %s", wl, seed, i, r.Body)
				}
				for _, tn := range env.Tenants {
					if len(tn.SeqLens) > 0 {
						t.Fatalf("%s seed %d request %d: tenant cohort carries its own SLs", wl, seed, i)
					}
				}
			}
		}
	}
}

// TestWorkCountsRepeat replays a short list twice per workload and checks
// the work counts the benchmark reports repeat exactly.
func TestWorkCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("primes the warm key space")
	}
	base := primedEngine(t)
	for _, wl := range workloads {
		list, err := generateN(wl, 3, 16)
		if err != nil {
			t.Fatal(err)
		}
		var first map[string]int64
		for round := 0; round < 2; round++ {
			run := replayList(cloneEngine(t, base), list, 2, true)
			counts := map[string]int64{"misses": run.engine.Misses}
			for _, s := range run.spans {
				switch s.Name {
				case "engine.Simulate", "engine.Sweep":
					counts["trainer.iterations"] += s.Items
				case "serving.Simulate", "serving.SimulateFleet":
					counts["serving.sim_requests"] += s.Items
				case "planner.probe":
					counts["planner.probes"]++
				}
			}
			if round == 0 {
				first = counts
				continue
			}
			for k, v := range counts {
				if first[k] != v {
					t.Errorf("%s: %s = %d then %d", wl, k, first[k], v)
				}
			}
		}
	}
}
