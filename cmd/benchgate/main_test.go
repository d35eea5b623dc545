package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqpoint/internal/benchdoc"
)

func doc(results ...benchdoc.Result) benchdoc.Document {
	return benchdoc.Document{Goos: "linux", Goarch: "amd64", Results: results}
}

func res(pkg, name string, ns float64) benchdoc.Result {
	return benchdoc.Result{
		Package: pkg, Name: name, Procs: 1, Iterations: 1, NsPerOp: ns,
		Metrics: map[string]float64{"ns/op": ns},
	}
}

// resAllocs is res plus an allocs/op measurement.
func resAllocs(pkg, name string, ns, allocs float64) benchdoc.Result {
	r := res(pkg, name, ns)
	r.Metrics["allocs/op"] = allocs
	return r
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := doc(res("seqpoint/internal/serving", "BenchmarkFleetMillionEvents", 1000))
	curr := doc(res("seqpoint/internal/serving", "BenchmarkFleetMillionEvents", 1200))
	report, ok, err := Compare(base, curr, 25, 10)
	if err != nil || !ok {
		t.Fatalf("20%% regression under a 25%% threshold should pass; ok=%v err=%v\n%s", ok, err, report)
	}
	if !strings.Contains(report, "+20.0%") {
		t.Fatalf("report missing the delta:\n%s", report)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := doc(res("p", "BenchmarkA", 1000))
	curr := doc(res("p", "BenchmarkA", 1300))
	report, ok, err := Compare(base, curr, 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("30%% regression passed a 25%% gate:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Fatalf("report does not name the regression:\n%s", report)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base := doc(res("p", "BenchmarkA", 1000))
	curr := doc(res("p", "BenchmarkA", 400))
	if report, ok, err := Compare(base, curr, 25, 10); err != nil || !ok {
		t.Fatalf("improvement failed the gate; ok=%v err=%v\n%s", ok, err, report)
	}
}

func TestCompareNewBenchmarkSkipped(t *testing.T) {
	base := doc(res("p", "BenchmarkA", 1000))
	curr := doc(res("p", "BenchmarkA", 1000), res("p", "BenchmarkBrandNew", 9e9))
	report, ok, err := Compare(base, curr, 25, 10)
	if err != nil || !ok {
		t.Fatalf("a new benchmark must not fail the gate; ok=%v err=%v\n%s", ok, err, report)
	}
	if !strings.Contains(report, "BenchmarkBrandNew") || !strings.Contains(report, "skipped") {
		t.Fatalf("new benchmark not reported as skipped:\n%s", report)
	}
}

func TestCompareVanishedBenchmarkFails(t *testing.T) {
	base := doc(res("p", "BenchmarkA", 1000), res("p", "BenchmarkGone", 500))
	curr := doc(res("p", "BenchmarkA", 1000))
	report, ok, err := Compare(base, curr, 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("vanished benchmark passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkGone") {
		t.Fatalf("report does not name the vanished benchmark:\n%s", report)
	}
}

func TestCompareEmptyDocumentsError(t *testing.T) {
	if _, _, err := Compare(doc(), doc(), 25, 10); err == nil {
		t.Fatal("two empty documents should be an error, not a pass")
	}
}

// TestCompareAllocGate exercises the allocs/op gate across its
// threshold, independence from the ns/op gate, and the
// missing-baseline-metric skip.
func TestCompareAllocGate(t *testing.T) {
	cases := []struct {
		name     string
		base     benchdoc.Result
		curr     benchdoc.Result
		wantOK   bool
		wantFrag string
	}{
		{
			name:     "alloc regression past threshold fails even with flat ns",
			base:     resAllocs("p", "BenchmarkA", 1000, 100),
			curr:     resAllocs("p", "BenchmarkA", 1000, 120),
			wantOK:   false,
			wantFrag: "120 allocs/op (+20.0%) REGRESSED past 10%",
		},
		{
			name:     "alloc growth within threshold passes",
			base:     resAllocs("p", "BenchmarkA", 1000, 100),
			curr:     resAllocs("p", "BenchmarkA", 1000, 105),
			wantOK:   true,
			wantFrag: "105 allocs/op (+5.0%) ok",
		},
		{
			name:     "alloc improvement passes",
			base:     resAllocs("p", "BenchmarkA", 1000, 100),
			curr:     resAllocs("p", "BenchmarkA", 1000, 40),
			wantOK:   true,
			wantFrag: "40 allocs/op (-60.0%) ok",
		},
		{
			name:     "ns regression still fails when allocs are flat",
			base:     resAllocs("p", "BenchmarkA", 1000, 100),
			curr:     resAllocs("p", "BenchmarkA", 1400, 100),
			wantOK:   false,
			wantFrag: "1400 ns/op (+40.0%) REGRESSED past 25%",
		},
		{
			name:   "baseline without allocs skips the alloc gate",
			base:   res("p", "BenchmarkA", 1000),
			curr:   resAllocs("p", "BenchmarkA", 1000, 9999),
			wantOK: true,
		},
		{
			name:   "current without allocs skips the alloc gate",
			base:   resAllocs("p", "BenchmarkA", 1000, 100),
			curr:   res("p", "BenchmarkA", 1000),
			wantOK: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			report, ok, err := Compare(doc(tc.base), doc(tc.curr), 25, 10)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.wantOK {
				t.Fatalf("gate ok = %v, want %v:\n%s", ok, tc.wantOK, report)
			}
			if tc.wantFrag != "" && !strings.Contains(report, tc.wantFrag) {
				t.Fatalf("report missing %q:\n%s", tc.wantFrag, report)
			}
		})
	}
}

// TestGateCommittedBaseline runs the gate over the repo's committed
// artifacts: the latest snapshot against itself must pass (guards that
// the committed files stay parseable in benchjson's format), and each
// snapshot against its predecessor must also pass — the trajectory
// only ever improved.
func TestGateCommittedBaseline(t *testing.T) {
	pr10, err := filepath.Abs("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(pr10); err != nil {
		t.Skipf("committed baseline not found: %v", err)
	}
	report, ok, err := Gate(pr10, pr10, 25, 10)
	if err != nil || !ok {
		t.Fatalf("self-comparison failed; ok=%v err=%v\n%s", ok, err, report)
	}
	dir := filepath.Dir(pr10)
	seed := filepath.Join(dir, "BENCH_seed.json")
	pr6 := filepath.Join(dir, "BENCH_pr6.json")
	pr7 := filepath.Join(dir, "BENCH_pr7.json")
	pr8 := filepath.Join(dir, "BENCH_pr8.json")
	pr9 := filepath.Join(dir, "BENCH_pr9.json")
	report, ok, err = Gate(seed, pr6, 25, 10)
	if err != nil || !ok {
		t.Fatalf("PR 6 numbers regressed against the seed; ok=%v err=%v\n%s", ok, err, report)
	}
	// PR 7 adds the KV model behind a nil-by-default config, so the
	// pre-existing benchmarks' wall time may wander but their
	// allocation counts must hold.
	report, ok, err = Gate(pr6, pr7, 25, 10)
	if err != nil || !ok {
		t.Fatalf("PR 7 numbers regressed against PR 6; ok=%v err=%v\n%s", ok, err, report)
	}
	// PR 8 adds the planner (a new benchmark, skipped against pr7)
	// without touching the serving hot path: allocation counts are
	// byte-identical.
	report, ok, err = Gate(pr7, pr8, 25, 10)
	if err != nil || !ok {
		t.Fatalf("PR 8 numbers regressed against PR 7; ok=%v err=%v\n%s", ok, err, report)
	}
	// PR 9 adds the workload generator (a new benchmark, skipped
	// against pr8); the tenancy fields ride existing structs, so the
	// serving and planner hot paths hold.
	report, ok, err = Gate(pr8, pr9, 25, 10)
	if err != nil || !ok {
		t.Fatalf("PR 9 numbers regressed against PR 8; ok=%v err=%v\n%s", ok, err, report)
	}
	// PR 10 adds the metrics middleware (and a new render benchmark,
	// skipped against pr9); per-request overhead is one histogram
	// observation plus a map bump, so the existing paths hold.
	report, ok, err = Gate(pr9, pr10, 25, 10)
	if err != nil || !ok {
		t.Fatalf("PR 10 numbers regressed against PR 9; ok=%v err=%v\n%s", ok, err, report)
	}
}
