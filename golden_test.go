package seqpoint_test

// Golden determinism harness. The simulator's core promise is that a
// Spec plus a seed pins the result down to the byte — independent of
// profiling parallelism, engine sharing, and cluster size. This test
// runs one Spec at profiling parallelism 1, 4 and GOMAXPROCS, at GPU
// counts 1, 4 and 8, asserts all parallelism levels serialize to
// byte-identical RunSummary JSON, and compares against a committed
// golden file so cross-version drift (a changed cost model, a changed
// float evaluation order) is caught in review instead of silently
// shifting every downstream number.
//
// Regenerate the golden after an intentional model change with:
//
//	go test -run TestGoldenClusterDeterminism -update-golden .

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seqpoint"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden run-summary file")

const goldenPath = "testdata/golden_cluster_summaries.json"

// goldenSpec is deliberately synthetic and small: a fixed SL list (no
// RNG beyond the seeded shuffle), the real GNMT model, and an eval
// corpus, so every simulator subsystem contributes to the digest while
// the test stays fast.
func goldenSpec(t *testing.T) seqpoint.Spec {
	t.Helper()
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	train, err := seqpoint.Synthetic("golden-train", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := seqpoint.Synthetic("golden-eval", lengths[:64], 1000)
	if err != nil {
		t.Fatal(err)
	}
	return seqpoint.Spec{
		Model:    seqpoint.NewGNMT(),
		Train:    train,
		Eval:     eval,
		Batch:    16,
		Epochs:   2,
		Schedule: seqpoint.GNMTSchedule(),
		Seed:     42,
	}
}

func TestGoldenClusterDeterminism(t *testing.T) {
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}
	gpuCounts := []int{1, 4, 8}

	var got bytes.Buffer
	for _, gpus := range gpuCounts {
		var reference []byte
		for _, par := range parallelisms {
			// A fresh private engine per run: nothing may leak between
			// parallelism levels through a shared cache, and a cold
			// cache is the harder determinism test.
			eng := seqpoint.NewEngine()
			eng.SetParallelism(par)
			spec := goldenSpec(t)
			spec.Profiles = eng
			spec.Cluster = seqpoint.DefaultCluster(gpus)

			run, err := eng.Simulate(spec, seqpoint.VegaFE())
			if err != nil {
				t.Fatalf("gpus=%d parallelism=%d: %v", gpus, par, err)
			}
			buf, err := run.Summary().Serialize()
			if err != nil {
				t.Fatalf("gpus=%d parallelism=%d: serialize: %v", gpus, par, err)
			}
			if reference == nil {
				reference = buf
				continue
			}
			if !bytes.Equal(buf, reference) {
				t.Fatalf("gpus=%d: RunSummary at parallelism %d differs from parallelism %d:\n%s\nvs\n%s",
					gpus, par, parallelisms[0], buf, reference)
			}
		}
		fmt.Fprintf(&got, "=== gpus %d ===\n", gpus)
		got.Write(reference)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, got.Len())
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("run summaries drifted from %s — if the cost model changed intentionally, regenerate with -update-golden.\ngot %d bytes, want %d bytes",
			goldenPath, got.Len(), len(want))
	}
}

const goldenServingPath = "testdata/golden_serving_summary.json"

// goldenServingSpec mirrors goldenSpec for the online-serving layer: a
// seeded Poisson trace over a fixed synthetic corpus, served with
// dynamic batching, so the arrival process, the batcher, the event
// loop, and the eval-profile pricing all contribute to the digest.
func goldenServingSpec(t *testing.T, eng *seqpoint.Engine) seqpoint.ServingSpec {
	t.Helper()
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	corpus, err := seqpoint.Synthetic("golden-serve", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := seqpoint.PoissonTrace(corpus, 128, 250, 42)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := seqpoint.NewDynamicBatch(16, 20000)
	if err != nil {
		t.Fatal(err)
	}
	return seqpoint.ServingSpec{
		Model:    seqpoint.NewGNMT(),
		Trace:    trace,
		Policy:   policy,
		Profiles: eng,
	}
}

// TestGoldenServingDeterminism holds the serving simulator to the same
// contract as training: byte-identical ServingSummary JSON at
// profiling parallelism 1, 4 and GOMAXPROCS, pinned against a
// committed golden file. Regenerate with -update-golden.
func TestGoldenServingDeterminism(t *testing.T) {
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}

	var reference []byte
	for _, par := range parallelisms {
		// A fresh private engine per run: a cold cache is the harder
		// determinism test.
		eng := seqpoint.NewEngine()
		eng.SetParallelism(par)
		res, err := seqpoint.SimulateServing(goldenServingSpec(t, eng), seqpoint.VegaFE())
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		buf, err := res.Summary().Serialize()
		if err != nil {
			t.Fatalf("parallelism=%d: serialize: %v", par, err)
		}
		if reference == nil {
			reference = buf
			continue
		}
		if !bytes.Equal(buf, reference) {
			t.Fatalf("ServingSummary at parallelism %d differs from parallelism %d:\n%s\nvs\n%s",
				par, parallelisms[0], buf, reference)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenServingPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenServingPath, reference, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenServingPath, len(reference))
		return
	}

	want, err := os.ReadFile(goldenServingPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(reference, want) {
		t.Errorf("serving summary drifted from %s — if the cost model changed intentionally, regenerate with -update-golden.\ngot:\n%s\nwant:\n%s",
			goldenServingPath, reference, want)
	}
}

const goldenFleetPath = "testdata/golden_fleet_summary.json"

// goldenFleetSpec stresses every fleet-only subsystem at once: seeded
// po2 routing, a bounded admission queue and the reactive autoscaler —
// so a byte drift in any of them shows up in the pinned summary.
func goldenFleetSpec(t *testing.T, eng *seqpoint.Engine) seqpoint.FleetSpec {
	t.Helper()
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	corpus, err := seqpoint.Synthetic("golden-fleet", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := seqpoint.PoissonTrace(corpus, 160, 700, 42)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := seqpoint.NewDynamicBatch(16, 20000)
	if err != nil {
		t.Fatal(err)
	}
	return seqpoint.FleetSpec{
		Model:    seqpoint.NewGNMT(),
		Trace:    trace,
		Policy:   policy,
		Router:   seqpoint.NewPowerOfTwo(42),
		Replicas: 1,
		QueueCap: 24,
		Autoscale: &seqpoint.FleetAutoscale{
			Min: 1, Max: 3, UpDepth: 8, DownDepth: 2, CooldownUS: 10000,
		},
		Profiles: eng,
	}
}

// TestGoldenFleetDeterminism holds the fleet simulator to the same
// contract as training and single-queue serving: byte-identical
// FleetSummary JSON at profiling parallelism 1, 4 and GOMAXPROCS,
// pinned against a committed golden file. Regenerate with
// -update-golden.
func TestGoldenFleetDeterminism(t *testing.T) {
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}

	var reference []byte
	for _, par := range parallelisms {
		// A fresh private engine per run: a cold cache is the harder
		// determinism test.
		eng := seqpoint.NewEngine()
		eng.SetParallelism(par)
		res, err := seqpoint.SimulateFleet(goldenFleetSpec(t, eng), seqpoint.VegaFE())
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		buf, err := res.Summary().Serialize()
		if err != nil {
			t.Fatalf("parallelism=%d: serialize: %v", par, err)
		}
		if reference == nil {
			reference = buf
			continue
		}
		if !bytes.Equal(buf, reference) {
			t.Fatalf("FleetSummary at parallelism %d differs from the reference run:\n%s\nvs\n%s",
				par, buf, reference)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFleetPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFleetPath, reference, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenFleetPath, len(reference))
		return
	}

	want, err := os.ReadFile(goldenFleetPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(reference, want) {
		t.Errorf("fleet summary drifted from %s — if the cost model changed intentionally, regenerate with -update-golden.\ngot:\n%s\nwant:\n%s",
			goldenFleetPath, reference, want)
	}
}

const goldenFleetKVPath = "testdata/golden_fleet_kv_summary.json"

// goldenFleetKVSpec pins the memory-aware serving stack: the KV-cache
// capacity model with a ceiling tight enough to force preemption
// waves, prefill/decode split pricing, cache-pressure routing, and a
// bounded admission queue. The KV-off goldens above are intentionally
// untouched — with Spec.KV nil the simulator must keep producing them
// byte-for-byte.
func goldenFleetKVSpec(t *testing.T, eng *seqpoint.Engine) seqpoint.FleetSpec {
	t.Helper()
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	corpus, err := seqpoint.Synthetic("golden-fleet-kv", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := seqpoint.PoissonTrace(corpus, 160, 700, 42)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := seqpoint.NewDynamicBatch(16, 20000)
	if err != nil {
		t.Fatal(err)
	}
	return seqpoint.FleetSpec{
		Model:    seqpoint.NewGNMT(),
		Trace:    trace,
		Policy:   policy,
		Router:   seqpoint.NewKVRouter(),
		Replicas: 3,
		QueueCap: 24,
		Profiles: eng,
		KV: &seqpoint.KVCacheConfig{
			// ~Half a full dynamic batch of worst-case contexts fits, so
			// the run preempts without rejecting anything at admission.
			CapacityBytes: 40e6,
			DecodeSteps:   24,
		},
	}
}

// TestGoldenFleetKVDeterminism holds memory-aware serving to the same
// byte contract: identical FleetSummary JSON at profiling parallelism
// 1, 4 and GOMAXPROCS, for both the aggregated fleet and the
// disaggregated two-pool topology, pinned against a committed golden
// file. Regenerate with -update-golden.
func TestGoldenFleetKVDeterminism(t *testing.T) {
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}

	var got bytes.Buffer
	for _, disagg := range []bool{false, true} {
		var reference []byte
		for _, par := range parallelisms {
			eng := seqpoint.NewEngine()
			eng.SetParallelism(par)
			spec := goldenFleetKVSpec(t, eng)
			if disagg {
				spec.Router = seqpoint.NewRoundRobin()
				spec.Disagg = &seqpoint.FleetDisagg{PrefillReplicas: 1, DecodeReplicas: 2}
			}
			res, err := seqpoint.SimulateFleet(spec, seqpoint.VegaFE())
			if err != nil {
				t.Fatalf("disagg=%v parallelism=%d: %v", disagg, par, err)
			}
			buf, err := res.Summary().Serialize()
			if err != nil {
				t.Fatalf("disagg=%v parallelism=%d: serialize: %v", disagg, par, err)
			}
			if reference == nil {
				reference = buf
				continue
			}
			if !bytes.Equal(buf, reference) {
				t.Fatalf("disagg=%v: FleetSummary at parallelism %d differs from the reference run:\n%s\nvs\n%s",
					disagg, par, buf, reference)
			}
		}
		fmt.Fprintf(&got, "=== disagg %v ===\n", disagg)
		got.Write(reference)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFleetKVPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFleetKVPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenFleetKVPath, got.Len())
		return
	}

	want, err := os.ReadFile(goldenFleetKVPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fleet KV summary drifted from %s — if the cost model changed intentionally, regenerate with -update-golden.\ngot:\n%s\nwant:\n%s",
			goldenFleetKVPath, got.Bytes(), want)
	}
}

// TestGoldenSummaryScalesSanely spot-checks the committed scenario's
// physics rather than its bytes: more GPUs must not slow training down,
// and communication only exists on clusters.
func TestGoldenSummaryScalesSanely(t *testing.T) {
	summaries := make(map[int]seqpoint.RunSummary)
	for _, gpus := range []int{1, 4, 8} {
		spec := goldenSpec(t)
		spec.Cluster = seqpoint.DefaultCluster(gpus)
		run, err := seqpoint.Simulate(spec, seqpoint.VegaFE())
		if err != nil {
			t.Fatal(err)
		}
		summaries[gpus] = run.Summary()
	}
	if summaries[1].CommUS != 0 {
		t.Errorf("single GPU reports %v us of communication", summaries[1].CommUS)
	}
	if summaries[4].TrainUS >= summaries[1].TrainUS {
		t.Errorf("4 GPUs train slower than 1 (%.0f >= %.0f us)", summaries[4].TrainUS, summaries[1].TrainUS)
	}
	if summaries[8].TrainUS >= summaries[4].TrainUS {
		t.Errorf("8 GPUs train slower than 4 (%.0f >= %.0f us)", summaries[8].TrainUS, summaries[4].TrainUS)
	}
	if summaries[4].ShardBatch != 4 || summaries[8].ShardBatch != 2 {
		t.Errorf("shard batches %d/%d, want 4/2", summaries[4].ShardBatch, summaries[8].ShardBatch)
	}
}
