package seqpoint_test

// Golden determinism for the capacity planner. Solve is a pure
// function of its spec, and the fleet simulator underneath is
// deterministic at any profiling parallelism — so the same planning
// problem must serialize to a byte-identical Plan at parallelism 1, 4
// and GOMAXPROCS, pinned against a committed golden file. The brute
// force companion test re-derives the answer by linear scan, proving
// the binary search returns the true minimum and that one replica
// fewer violates the SLO.
//
// Regenerate the golden after an intentional model change with:
//
//	go test -run TestGoldenPlanDeterminism -update-golden .

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seqpoint"
)

const goldenPlanPath = "testdata/golden_plan.json"

// goldenPlanWorkload is the same synthetic corpus the other goldens
// use, served at 700 rps with dynamic batching behind a bounded queue.
const (
	goldenPlanRate     = 700.0
	goldenPlanRequests = 160
	goldenPlanQueueCap = 24
	goldenPlanSeed     = 42
	goldenPlanMaxRepl  = 8
)

// goldenPlanSLO needs three replicas of every routing on this
// workload: two replicas drop 20% of admissions and miss the
// throughput floor.
func goldenPlanSLO() seqpoint.PlanSLO {
	noDrops := 0.0
	return seqpoint.PlanSLO{
		LatencyP99US:     180_000,
		MinThroughputRPS: 400,
		MaxDropRatePct:   &noDrops,
	}
}

// goldenPlanProbe prices candidates through the public facade: a
// seeded Poisson trace per offered rate, the shared profile engine,
// and the full fleet simulator.
func goldenPlanProbe(t testing.TB, eng *seqpoint.Engine) seqpoint.PlanProbeFunc {
	t.Helper()
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	corpus, err := seqpoint.Synthetic("golden-plan", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return func(c seqpoint.PlanCandidate, rate float64) (seqpoint.FleetSummary, error) {
		trace, err := seqpoint.PoissonTrace(corpus, goldenPlanRequests, rate, goldenPlanSeed)
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		policy, err := seqpoint.NewDynamicBatch(16, 20000)
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		router, err := seqpoint.ParseRouting(c.Routing, goldenPlanSeed)
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		res, err := seqpoint.SimulateFleet(seqpoint.FleetSpec{
			Model:    seqpoint.NewGNMT(),
			Trace:    trace,
			Policy:   policy,
			Router:   router,
			Replicas: c.Replicas,
			QueueCap: goldenPlanQueueCap,
			Profiles: eng,
			Stop:     c.Stop,
		}, seqpoint.VegaFE())
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		return res.Summary(), nil
	}
}

func goldenPlanSpec(t testing.TB, eng *seqpoint.Engine) seqpoint.PlanSpec {
	return seqpoint.PlanSpec{
		SLO:         goldenPlanSLO(),
		RatePerSec:  goldenPlanRate,
		MaxReplicas: goldenPlanMaxRepl,
		Probe:       goldenPlanProbe(t, eng),
	}
}

// TestGoldenPlanDeterminism holds the planner to the repo's byte
// contract: identical Plan JSON at profiling parallelism 1, 4 and
// GOMAXPROCS, pinned against a committed golden file. Regenerate with
// -update-golden.
func TestGoldenPlanDeterminism(t *testing.T) {
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}

	var reference []byte
	for _, par := range parallelisms {
		// A fresh private engine per run: a cold cache is the harder
		// determinism test.
		eng := seqpoint.NewEngine()
		eng.SetParallelism(par)
		plan, err := seqpoint.SolvePlan(goldenPlanSpec(t, eng))
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		buf, err := plan.Serialize()
		if err != nil {
			t.Fatalf("parallelism=%d: serialize: %v", par, err)
		}
		if reference == nil {
			reference = buf
			continue
		}
		if !bytes.Equal(buf, reference) {
			t.Fatalf("Plan at parallelism %d differs from parallelism %d:\n%s\nvs\n%s",
				par, parallelisms[0], buf, reference)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPlanPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlanPath, reference, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPlanPath, len(reference))
		return
	}

	want, err := os.ReadFile(goldenPlanPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(reference, want) {
		t.Errorf("plan drifted from %s — if the cost model or search changed intentionally, regenerate with -update-golden.\ngot:\n%s\nwant:\n%s",
			goldenPlanPath, reference, want)
	}
}

// TestGoldenPlanMinimality re-derives the golden answer by brute
// force: scan every replica count through the same probe, and confirm
// the planner's binary search returned the smallest feasible fleet —
// in particular that replicas−1 violates the SLO.
func TestGoldenPlanMinimality(t *testing.T) {
	eng := seqpoint.NewEngine()
	plan, err := seqpoint.SolvePlan(goldenPlanSpec(t, eng))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Replicas < 2 {
		t.Fatalf("golden workload plans %d replica(s); the minimality check below would be vacuous", plan.Replicas)
	}

	probe := goldenPlanProbe(t, eng)
	slo := goldenPlanSLO()
	minimal := 0
	for r := 1; r <= goldenPlanMaxRepl; r++ {
		sum, err := probe(seqpoint.PlanCandidate{Replicas: r, Routing: plan.Routing}, goldenPlanRate)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := slo.Check(sum); ok {
			minimal = r
			break
		}
	}
	if minimal == 0 {
		t.Fatal("brute force found no feasible replica count, but the planner returned a plan")
	}
	if plan.Replicas != minimal {
		t.Errorf("planner chose %d replicas, brute-force minimum for routing %q is %d", plan.Replicas, plan.Routing, minimal)
	}

	below, err := probe(seqpoint.PlanCandidate{Replicas: plan.Replicas - 1, Routing: plan.Routing}, goldenPlanRate)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slo.Check(below); ok {
		t.Errorf("%d replicas also meet the SLO; the plan is not minimal", plan.Replicas-1)
	}
}

// BenchmarkPlanSearch measures planner convergence on the golden
// workload: the full search — four routings, binary search to the
// minimal fleet, knee bisection — against the real profile-backed
// fleet simulator with a warm engine.
func BenchmarkPlanSearch(b *testing.B) {
	eng := seqpoint.NewEngine()
	spec := goldenPlanSpec(b, eng)
	// Warm the profile cache once so iterations measure the search and
	// the simulations, not first-touch profiling.
	if _, err := seqpoint.SolvePlan(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := seqpoint.SolvePlan(spec)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Replicas == 0 {
			b.Fatal("empty plan")
		}
	}
}
