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

// This file holds what the serving sweeps share: the runner every arm
// goes through, and the arrival-rate grid. Rates are never absolute
// but expressed as factors of a measured capacity, so "factor 1.0" is
// the saturation knee by construction for every workload, policy and
// fleet size.

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

// sweepRunner holds what a serving sweep keeps fixed across its arms:
// the workload, the hardware, the lab's engine, the shared dynamic
// batching policy and the trace length.
type sweepRunner struct {
	w        Workload
	cfg      gpusim.Config
	eng      trainer.ProfileSource
	policy   serving.Policy
	requests int
}

// newSweepRunner resolves the shared policy for w on cfg. That is a
// sweep's first simulation work, so sweeps validate their axes before
// calling it. requests <= 0 uses DefaultServeRequests.
func newSweepRunner(lab *Lab, w Workload, cfg gpusim.Config, requests int) (sweepRunner, error) {
	if requests <= 0 {
		requests = DefaultServeRequests
	}
	policy, err := servingPolicy(lab.Engine(), w, cfg)
	if err != nil {
		return sweepRunner{}, err
	}
	return sweepRunner{w: w, cfg: cfg, eng: lab.Engine(), policy: policy, requests: requests}, nil
}

// calibratedRunner is newSweepRunner plus the capacity measured on a
// burst drawn from the corpus: the corpus-mix sweeps' shared prologue.
func calibratedRunner(lab *Lab, w Workload, cfg gpusim.Config, requests int) (sweepRunner, float64, error) {
	run, err := newSweepRunner(lab, w, cfg, requests)
	if err != nil {
		return sweepRunner{}, 0, err
	}
	capacity, err := run.capacity(workload.BurstTrace(w.Train, run.requests, w.Seed))
	return run, capacity, err
}

// simulate runs one arm on the fleet simulator. An arm that leaves
// them unset gets the base policy, one round-robin replica and an
// unbounded queue. An unbounded arm must serve every request, or the
// sweep would report a silently thinned run: a rejection there is a
// request whose KV footprint exceeds the capacity, and an error.
func (r sweepRunner) simulate(arm serving.FleetSpec) (*serving.FleetResult, error) {
	arm.Model, arm.Profiles = r.w.Model, r.eng
	if arm.Policy == nil {
		arm.Policy = r.policy
	}
	if arm.Router == nil {
		arm.Router = serving.NewRoundRobin()
	}
	if arm.Replicas == 0 {
		arm.Replicas = 1
	}
	run, err := serving.SimulateFleet(arm, r.cfg)
	if err != nil {
		return nil, err
	}
	if rej := run.Rejections; arm.QueueCap == 0 && len(rej) > 0 {
		return nil, fmt.Errorf("experiments: request %d rejected (%s) with no queue bound", rej[0].ID, rej[0].Reason)
	}
	return run, nil
}

// capacity serves trace's requests as one backlogged burst, all
// arriving at time zero, through one replica under the base policy:
// every batch launches full, so the throughput is the per-replica
// saturation rate on that request mix. Like template.Must, it takes
// the trace generator's error too, so a call can wrap the generator.
func (r sweepRunner) capacity(trace serving.Trace, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	burst := trace
	burst.Requests = append([]serving.Request(nil), trace.Requests...)
	for i := range burst.Requests {
		burst.Requests[i].ArrivalUS = 0
	}
	run, err := r.simulate(serving.FleetSpec{Trace: burst})
	if err != nil {
		return 0, fmt.Errorf("experiments: %s capacity probe: %w", r.w.Name, err)
	}
	capacity := run.Throughput()
	if capacity <= 0 {
		return 0, fmt.Errorf("experiments: zero measured capacity for %s", r.w.Name)
	}
	return capacity, nil
}

// poisson builds an arm's Poisson trace at rate. Every arm shares the
// workload seed, so arms serve the same request mix at different paces.
func (r sweepRunner) poisson(rate float64) (serving.Trace, error) {
	return workload.PoissonTrace(r.w.Train, r.requests, rate, r.w.Seed)
}
