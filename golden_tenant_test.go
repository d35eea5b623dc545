package seqpoint_test

// Golden determinism for the multi-tenant workload path, end to end:
// a generated diurnal Zipf trace — two cohorts, bulk clumps, four
// tenants — served by a weighted-fair-batched fleet must serialize to
// a byte-identical FleetSummary at profiling parallelism 1, 4 and
// GOMAXPROCS, pinned against a committed golden file. The round-trip
// companion test saves the same trace through the versioned file
// format, loads it back, and replays it to the same bytes — the
// record/replay contract the trainsim and HTTP trace_file paths lean
// on.
//
// Regenerate the golden after an intentional model change with:
//
//	go test -run TestGoldenTenantDeterminism -update-golden .

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seqpoint"
)

const goldenTenantPath = "testdata/golden_tenant_summary.json"

const (
	goldenTenantRequests = 192
	goldenTenantRate     = 600.0
	goldenTenantSeed     = 42
	goldenTenantReplicas = 2
	goldenTenantQueueCap = 24
	goldenTenantBatch    = 8
)

// goldenTenantTrace generates the pinned workload: a chat cohort of
// three Zipf-skewed interactive tenants against a clumping bulk
// tenant, under a diurnal rate swing spanning one full period.
func goldenTenantTrace(t testing.TB) seqpoint.ServingTrace {
	t.Helper()
	short := make([]int, 24)
	for i := range short {
		short[i] = 4 + (i*5)%24
	}
	long := make([]int, 12)
	for i := range long {
		long[i] = 32 + (i*7)%28
	}
	horizonUS := float64(goldenTenantRequests) / goldenTenantRate * 1e6
	trace, err := seqpoint.GenerateTrace(seqpoint.WorkloadGenSpec{
		Name:       "golden-tenant",
		Requests:   goldenTenantRequests,
		RatePerSec: goldenTenantRate,
		Seed:       goldenTenantSeed,
		Pattern: seqpoint.WorkloadPattern{
			Kind:      seqpoint.PatternDiurnal,
			PeriodUS:  horizonUS,
			Amplitude: 0.5,
		},
		Cohorts: []seqpoint.WorkloadCohort{
			{Class: "chat", Tenants: 3, Weight: 8, ZipfS: 1.1, SeqLens: short},
			{Class: "bulk", Tenants: 1, Weight: 1, SeqLens: long, Burst: 2 * goldenTenantBatch},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// goldenTenantSummary runs the pinned fleet over a trace with a
// private engine at the given profiling parallelism and returns the
// serialized summary.
func goldenTenantSummary(t testing.TB, trace seqpoint.ServingTrace, par int) []byte {
	t.Helper()
	eng := seqpoint.NewEngine()
	eng.SetParallelism(par)
	policy, err := seqpoint.NewWFQBatch(goldenTenantBatch, 15_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := seqpoint.SimulateFleet(seqpoint.FleetSpec{
		Model:    seqpoint.NewGNMT(),
		Trace:    trace,
		Policy:   policy,
		Router:   seqpoint.NewRoundRobin(),
		Replicas: goldenTenantReplicas,
		QueueCap: goldenTenantQueueCap,
		Profiles: eng,
	}, seqpoint.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := res.Summary().Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestGoldenTenantDeterminism holds the multi-tenant pipeline to the
// repo's byte contract: generate → simulate is byte-identical at
// profiling parallelism 1, 4 and GOMAXPROCS, pinned against a
// committed golden. Regenerate with -update-golden.
func TestGoldenTenantDeterminism(t *testing.T) {
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}

	var reference []byte
	for _, par := range parallelisms {
		buf := goldenTenantSummary(t, goldenTenantTrace(t), par)
		if reference == nil {
			reference = buf
			continue
		}
		if !bytes.Equal(buf, reference) {
			t.Fatalf("tenant summary at parallelism %d differs from parallelism %d:\n%s\nvs\n%s",
				par, parallelisms[0], buf, reference)
		}
	}
	if !bytes.Contains(reference, []byte(`"per_tenant"`)) {
		t.Fatalf("golden summary carries no per-tenant block:\n%s", reference)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTenantPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTenantPath, reference, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenTenantPath, len(reference))
		return
	}

	want, err := os.ReadFile(goldenTenantPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(reference, want) {
		t.Errorf("tenant summary drifted from %s — if the cost model or generator changed intentionally, regenerate with -update-golden.\ngot:\n%s\nwant:\n%s",
			goldenTenantPath, reference, want)
	}
}

// TestGoldenTenantTraceRoundTrip proves record/replay is lossless:
// saving the golden trace through the versioned file format and
// replaying the loaded copy reproduces the committed summary bytes.
func TestGoldenTenantTraceRoundTrip(t *testing.T) {
	trace := goldenTenantTrace(t)
	path := filepath.Join(t.TempDir(), "golden-tenant.trace")
	if err := seqpoint.SaveTrace(path, trace); err != nil {
		t.Fatal(err)
	}
	loaded, err := seqpoint.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}

	direct := goldenTenantSummary(t, trace, 1)
	replayed := goldenTenantSummary(t, loaded, 1)
	if !bytes.Equal(replayed, direct) {
		t.Fatalf("replayed trace diverged from the generated one:\n%s\nvs\n%s", replayed, direct)
	}
	if want, err := os.ReadFile(goldenTenantPath); err == nil && !bytes.Equal(replayed, want) {
		t.Errorf("replayed summary drifted from %s:\n%s\nvs\n%s", goldenTenantPath, replayed, want)
	}
}
