package serving

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
	"seqpoint/internal/trainer"
)

// nanSource prices one sequence length as NaN and everything else
// normally: the shape of a profiler bug the price table must refuse
// rather than serve. Before the finiteness check, a NaN profile was
// indistinguishable from the table's own unfilled-slot sentinel, so it
// flowed straight into latencies and poisoned every percentile
// downstream.
type nanSource struct {
	badSLs []int
	bad    float64
}

func (s *nanSource) TrainProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	return s.EvalProfiles(hw, cl, m, batch, seqLens)
}

func (s *nanSource) EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	out := make(map[int]profiler.IterationProfile, len(seqLens))
	for _, sl := range seqLens {
		us := float64(sl) * 100
		for _, bad := range s.badSLs {
			if sl == bad {
				us = s.bad
			}
		}
		out[sl] = profiler.IterationProfile{SeqLen: sl, Batch: batch, TimeUS: us}
	}
	return out, nil
}

func TestPriceTableRejectsNonFinitePrices(t *testing.T) {
	fixed, _ := NewFixedBatch(2)
	for name, bad := range map[string]float64{
		"NaN":  math.NaN(),
		"+Inf": math.Inf(1),
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Simulate(Spec{
				Model:    models.NewGNMT(),
				Trace:    replay(t, []float64{0, 5}, []int{3, 4}),
				Policy:   fixed,
				Profiles: &nanSource{badSLs: []int{4}, bad: bad},
			}, gpusim.VegaFE())
			if !errors.Is(err, ErrNonFinitePrice) {
				t.Fatalf("Simulate error = %v, want ErrNonFinitePrice", err)
			}
		})
	}
}

// The same guard covers the decode row: a KV-enabled run prices decode
// steps at SL 1, so a non-finite SL-1 profile must surface as the
// typed error, not a NaN timeline.
func TestPriceTableRejectsNonFiniteDecodePrice(t *testing.T) {
	fixed, _ := NewFixedBatch(1)
	_, err := Simulate(Spec{
		Model:    models.NewGNMT(),
		Trace:    replay(t, []float64{0}, []int{3}),
		Policy:   fixed,
		Profiles: &nanSource{badSLs: []int{decodeSL}, bad: math.NaN()},
		KV:       &KVConfig{CapacityBytes: 1e9, DecodeSteps: 2},
	}, gpusim.VegaFE())
	if !errors.Is(err, ErrNonFinitePrice) {
		t.Fatalf("Simulate error = %v, want ErrNonFinitePrice", err)
	}
}

// TestPriceTableNamesFirstBadPriceInTraceOrder: with two non-finite
// prices among the prefetched row, the error names the SL that comes
// first in the trace, on every run. The check used to follow map
// order, so identical /v1/serve or /v1/fleet requests could fail with
// different texts.
func TestPriceTableNamesFirstBadPriceInTraceOrder(t *testing.T) {
	fixed, _ := NewFixedBatch(2)
	tr := replay(t, []float64{0, 5, 10, 15}, []int{5, 9, 3, 9})
	var first string
	for run := 0; run < 50; run++ {
		_, err := Simulate(Spec{
			Model:    models.NewGNMT(),
			Trace:    tr,
			Policy:   fixed,
			Profiles: &nanSource{badSLs: []int{3, 9}, bad: math.NaN()},
		}, gpusim.VegaFE())
		if !errors.Is(err, ErrNonFinitePrice) {
			t.Fatalf("run %d: error = %v, want ErrNonFinitePrice", run, err)
		}
		if run == 0 {
			first = err.Error()
			if want := "serving: profile source returned non-finite latency: NaN for batch 2 SL 9"; first != want {
				t.Fatalf("error %q, want %q", first, want)
			}
		} else if err.Error() != first {
			t.Fatalf("run %d: error %q, run 0: %q", run, err, first)
		}
	}
}

// singleKeyStub is stubSource with the engine's single-key lookup.
type singleKeyStub struct {
	stubSource
	lookups int
}

func (s *singleKeyStub) EvalTimeUS(hw gpusim.Config, m models.Model, batch, seqLen int) (float64, error) {
	s.lookups++
	return float64(seqLen) * 100, nil
}

// TestPriceTableSingleKeyFills: a source with EvalTimeUS fills every
// slot after the prefetch through it, and a source without it through
// EvalProfiles, with the same result.
func TestPriceTableSingleKeyFills(t *testing.T) {
	corpus, err := dataset.Synthetic("fills", fuzzLengths(3), 1000)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := PoissonTrace(corpus, 300, 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewDynamicBatch(8, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []*KVConfig{nil, {CapacityBytes: 1e9, DecodeSteps: 4}} {
		run := func(src trainer.ProfileSource) []byte {
			res, err := SimulateFleet(FleetSpec{
				Model: models.NewGNMT(), Trace: trace, Policy: policy, Router: NewJSQ(),
				Replicas: 2, Profiles: src, KV: kv,
			}, gpusim.VegaFE())
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.Summary().Serialize()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		bulk, single := &stubSource{}, &singleKeyStub{}
		want, got := run(bulk), run(single)
		if !bytes.Equal(got, want) {
			t.Fatalf("KV %v: single-key fills changed the summary:\n%s\nvs\n%s", kv != nil, got, want)
		}
		if single.calls != 1 || single.lookups != bulk.calls-1 || single.lookups == 0 {
			t.Errorf("KV %v: single-key source made %d bulk and %d single calls; the bulk-only one %d bulk calls",
				kv != nil, single.calls, single.lookups, bulk.calls)
		}
	}
}

// slRecorder is stubSource that records the SLs of every bulk call.
type slRecorder struct {
	stubSource
	bulk [][]int
}

func (s *slRecorder) EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	s.bulk = append(s.bulk, append([]int(nil), seqLens...))
	return s.stubSource.EvalProfiles(hw, cl, m, batch, seqLens)
}

// TestPriceTableIndex: the table numbers a trace's SLs in first-arrival
// order and prefetches them in that order, indexes an SL past the dense
// range through its map, and holds a trace only when it has a slot for
// every request's SL.
func TestPriceTableIndex(t *testing.T) {
	reqs := []Request{{SeqLen: 8}, {SeqLen: 4}, {SeqLen: 8}, {SeqLen: 1 << 20}, {SeqLen: 16}, {SeqLen: 1 << 20}, {SeqLen: 4}}
	src := &slRecorder{}
	pt, err := newPriceTable(src, gpusim.VegaFE(), models.NewGNMT(), 2, reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	order := []int{8, 4, 1 << 20, 16}
	if len(src.bulk) != 1 || !slices.Equal(src.bulk[0], order) {
		t.Fatalf("bulk prefetches %v, want one of %v", src.bulk, order)
	}
	for i, sl := range order {
		if got := pt.slIndex(sl); got != i+1 {
			t.Errorf("SL %d has index %d, want %d", sl, got, i+1)
		}
	}
	if _, ok := pt.slSparse[1<<20]; !ok || len(pt.slDense) > maxDenseSL {
		t.Errorf("SL 2^20 is not indexed through the map (dense index of %d SLs)", len(pt.slDense))
	}
	if !pt.holds(reqs) {
		t.Error("the table does not hold its own trace")
	}
	for _, sl := range []int{3, 17, maxDenseSL, 1<<20 + 1} {
		if pt.holds(append(reqs[:3:3], Request{SeqLen: sl})) {
			t.Errorf("the table holds a trace with SL %d, which it has no slot for", sl)
		}
	}
}
