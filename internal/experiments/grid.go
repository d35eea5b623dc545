package experiments

import (
	"fmt"
	"math"
	"sort"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/serving"
	"seqpoint/internal/stats"
	"seqpoint/internal/trainer"
	"seqpoint/internal/workload"
)

// This file holds the arrival-rate-grid construction the serving
// sweeps share: rates are never absolute but expressed as factors of a
// measured capacity, so "factor 1.0" is the saturation knee by
// construction for every workload, policy and fleet size.

// ValidateLoadFactors checks a rate grid's load factors: at least
// one, all positive and finite. Sweeps call it before their expensive
// capacity probes so invalid input fails free.
func ValidateLoadFactors(factors []float64) error {
	if len(factors) == 0 {
		return fmt.Errorf("experiments: rate grid needs at least one load factor")
	}
	for _, f := range factors {
		// !(f > 0) also catches NaN, which sort.Float64s may place
		// anywhere.
		if !(f > 0) || math.IsInf(f, 0) {
			return fmt.Errorf("experiments: load factors must be positive and finite, got %v", factors)
		}
	}
	return nil
}

// ScaledRates validates the load factors (at least one; all positive
// and finite), sorts a copy ascending, and scales each by capacityRPS.
// It returns the sorted factors alongside the rates so sweep rows can
// report both.
func ScaledRates(capacityRPS float64, factors []float64) (sortedFactors, rates []float64, err error) {
	if capacityRPS <= 0 || math.IsNaN(capacityRPS) || math.IsInf(capacityRPS, 0) {
		return nil, nil, fmt.Errorf("experiments: capacity must be a positive finite rate, got %v", capacityRPS)
	}
	if err := ValidateLoadFactors(factors); err != nil {
		return nil, nil, err
	}
	fs := append([]float64(nil), factors...)
	sort.Float64s(fs)
	rates = make([]float64, len(fs))
	for i, f := range fs {
		rates[i] = f * capacityRPS
	}
	return fs, rates, nil
}

// fullBatchServiceUS prices one full batch at the corpus's median SL:
// the sweeps' shared unit of service time, used both as the dynamic
// batching window and to scale SLO budgets.
func fullBatchServiceUS(eng trainer.ProfileSource, w Workload, cfg gpusim.Config) (float64, error) {
	medSL, err := stats.MedianInt(w.Train.Lengths)
	if err != nil {
		return 0, err
	}
	profiles, err := eng.EvalProfiles(cfg, gpusim.SingleGPU(), w.Model, w.Batch, []int{medSL})
	if err != nil {
		return 0, err
	}
	serviceUS := profiles[medSL].TimeUS
	if serviceUS <= 0 {
		return 0, fmt.Errorf("experiments: zero service time for %s at SL %d", w.Name, medSL)
	}
	return serviceUS, nil
}

// servingPolicy builds the sweeps' shared batching policy for w served
// on cfg: timeout-bounded dynamic batching with max batch w.Batch and
// a timeout of one full-batch service time at the corpus's median SL,
// so low-load queueing delay stays on the order of a single batch.
func servingPolicy(eng trainer.ProfileSource, w Workload, cfg gpusim.Config) (serving.Policy, error) {
	serviceUS, err := fullBatchServiceUS(eng, w, cfg)
	if err != nil {
		return nil, err
	}
	return serving.NewDynamicBatch(w.Batch, serviceUS)
}

// measureCapacity runs a fully backlogged burst of the given length
// through one single-GPU replica under policy: every batch launches
// full, so the achieved throughput is the per-replica saturation rate
// on this request mix.
func measureCapacity(eng trainer.ProfileSource, w Workload, cfg gpusim.Config, policy serving.Policy, requests int) (float64, error) {
	burst, err := workload.BurstTrace(w.Train, requests, w.Seed)
	if err != nil {
		return 0, err
	}
	run, err := serving.Simulate(serving.Spec{
		Model:    w.Model,
		Trace:    burst,
		Policy:   policy,
		Profiles: eng,
	}, cfg)
	if err != nil {
		return 0, fmt.Errorf("experiments: %s capacity probe: %w", w.Name, err)
	}
	capacity := run.Throughput()
	if capacity <= 0 {
		return 0, fmt.Errorf("experiments: zero measured capacity for %s", w.Name)
	}
	return capacity, nil
}
