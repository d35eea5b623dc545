package serving

// Hot-path benchmarks for the serving and fleet event loops. These are
// the benchmarks the in-repo perf trajectory tracks: BENCH_seed.json
// holds the pre-optimization baseline, BENCH_pr6.json the first
// optimized snapshot, and CI's bench-regression gate compares fresh
// runs against the committed snapshot (see cmd/benchgate).
//
// They price batches through the hermetic stub source so they measure
// the event loop — scheduling, routing, batching, metrics — rather
// than the analytical cost model, and they report allocations: the
// alloc trajectory is as load-bearing as ns/op, since at millions of
// requests GC pressure dominates wall time. Each also reports
// ns/request, the wall time per simulated request, which compares
// across trace lengths.

import (
	"fmt"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
)

// benchCorpus is a fixed synthetic SL pool matching the golden specs'
// shape: 48 distinct lengths in [4, 51].
func benchCorpus(b *testing.B) *dataset.Corpus {
	b.Helper()
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	c, err := dataset.Synthetic("bench", lengths, 1000)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkFleetMillionEvents is the headline fleet-scale benchmark:
// 128 replicas serving one million Poisson arrivals under dynamic
// batching and least-outstanding routing. One iteration is one full
// simulation, so ns/op amortizes over ~2M+ scheduler events.
func BenchmarkFleetMillionEvents(b *testing.B) {
	const (
		replicas = 128
		requests = 1_000_000
		rate     = 400_000 // req/s: ~60% of the stub fleet's capacity
	)
	trace, err := PoissonTrace(benchCorpus(b), requests, rate, 42)
	if err != nil {
		b.Fatal(err)
	}
	policy, err := NewDynamicBatch(16, 2_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SimulateFleet(FleetSpec{
			Model:    models.NewGNMT(),
			Trace:    trace,
			Policy:   policy,
			Router:   NewLeastOutstanding(),
			Replicas: replicas,
			Profiles: &stubSource{},
		}, gpusim.VegaFE())
		if err != nil {
			b.Fatal(err)
		}
		if got := len(res.Requests); got != requests {
			b.Fatalf("served %d of %d requests", got, requests)
		}
		sum := res.Summary()
		if sum.Served != requests {
			b.Fatalf("summary served %d, want %d", sum.Served, requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
}

// BenchmarkFleetKV measures the memory-aware fleet: 32 replicas,
// 200k arrivals, the KV-cache capacity model with a ceiling tight
// enough that batches split into preemption waves, cache-pressure
// routing, and the two-phase prefill/decode pricing. It bounds the
// cost of the KV bookkeeping relative to BenchmarkFleetMillionEvents'
// KV-less loop and pins its allocation behavior.
func BenchmarkFleetKV(b *testing.B) {
	const (
		replicas = 32
		requests = 200_000
		rate     = 100_000 // req/s: ~60% of the stub fleet's capacity
	)
	trace, err := PoissonTrace(benchCorpus(b), requests, rate, 42)
	if err != nil {
		b.Fatal(err)
	}
	policy, err := NewDynamicBatch(16, 2_000)
	if err != nil {
		b.Fatal(err)
	}
	kv := &KVConfig{
		// ~8 worst-case contexts ((51+16)×1000B each) per replica, so a
		// full 16-batch preempts but single requests always admit.
		CapacityBytes: 536_000,
		DecodeSteps:   16,
		BytesPerToken: 1000,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SimulateFleet(FleetSpec{
			Model:    models.NewGNMT(),
			Trace:    trace,
			Policy:   policy,
			Router:   NewKVRouter(),
			Replicas: replicas,
			Profiles: &stubSource{},
			KV:       kv,
		}, gpusim.VegaFE())
		if err != nil {
			b.Fatal(err)
		}
		if got := len(res.Requests); got != requests {
			b.Fatalf("served %d of %d requests", got, requests)
		}
		if res.KV == nil || res.KV.PeakBytes > kv.CapacityBytes {
			b.Fatalf("KV stats %+v violate the %v-byte ceiling", res.KV, kv.CapacityBytes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
}

// BenchmarkServingHotPath measures Simulate — the fleet event loop
// with a single replica: its route/consult/dispatch/record cycle — over
// 200k arrivals near saturation, plus the summary roll-up.
func BenchmarkServingHotPath(b *testing.B) {
	const (
		requests = 200_000
		rate     = 3_000 // req/s: ~85% of the stub server's capacity
	)
	trace, err := PoissonTrace(benchCorpus(b), requests, rate, 7)
	if err != nil {
		b.Fatal(err)
	}
	policy, err := NewDynamicBatch(16, 5_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(Spec{
			Model:    models.NewGNMT(),
			Trace:    trace,
			Policy:   policy,
			Profiles: &stubSource{},
		}, gpusim.VegaFE())
		if err != nil {
			b.Fatal(err)
		}
		if got := len(res.Requests); got != requests {
			b.Fatalf("served %d of %d requests", got, requests)
		}
		sum := res.Summary()
		if sum.Requests != requests {
			b.Fatalf("summary requests %d, want %d", sum.Requests, requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
}

// BenchmarkServingBacklog measures the dispatch layer under a growing
// backlog: one replica offered about twice its stub capacity, so the
// queue deepens for the whole run and every dispatch sees it. A
// dispatch that rebuilt the whole queue made the cost per request grow
// with the trace length; with the sliding queue, ns/request should not
// grow from 8,192 to 32,768 requests. wfq spreads the trace over four
// interleaved tenants, so its pick chains a full window each dispatch.
func BenchmarkServingBacklog(b *testing.B) {
	const rate = 7_000 // req/s: about 2× the stub server's capacity at batch 16
	tenants := []string{"t0", "t1", "t2", "t3"}
	for _, policy := range []string{PolicyDynamic, PolicyWFQ} {
		for _, requests := range []int{8_192, 32_768} {
			b.Run(fmt.Sprintf("%s/requests=%d", policy, requests), func(b *testing.B) {
				trace, err := PoissonTrace(benchCorpus(b), requests, rate, 11)
				if err != nil {
					b.Fatal(err)
				}
				if policy == PolicyWFQ {
					for i := range trace.Requests {
						trace.Requests[i].Tenant = tenants[i%len(tenants)]
					}
				}
				p, err := ParsePolicy(policy, 16, 2_000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Simulate(Spec{
						Model:    models.NewGNMT(),
						Trace:    trace,
						Policy:   p,
						Profiles: &stubSource{},
					}, gpusim.VegaFE())
					if err != nil {
						b.Fatal(err)
					}
					if got := len(res.Requests); got != requests {
						b.Fatalf("served %d of %d requests", got, requests)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
			})
		}
	}
}
