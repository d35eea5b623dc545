package experiments

import (
	"fmt"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
)

// KVSweepRow is one KV-cache capacity's serving outcome.
type KVSweepRow struct {
	// CapacityGB is the per-replica cache ceiling in decimal gigabytes.
	CapacityGB float64
	// FleetSummary digests the run: its TTFT statistics run from
	// arrival to prefill completion, Preemptions counts requests
	// displaced by the ceiling, and KVPeakBytes is the largest
	// footprint actually held.
	serving.FleetSummary
}

// KVSweepResult is the cache-capacity sweep of one workload at a fixed
// arrival rate: the memory wall of online serving. With ample cache
// every batch the policy picks fits and the tail is the compute tail;
// as the ceiling drops, batches fragment into capacity-bounded waves,
// preemptions climb, and p99 TTFT inflates long before throughput
// moves — the paper's compute-only latency projections cannot see this
// regime, which is exactly why the capacity model exists.
type KVSweepResult struct {
	// Network is the workload name; Policy the batching policy.
	Network string
	Policy  string
	// DecodeSteps is the decode length applied to every request;
	// BytesPerToken the model-derived cache footprint.
	DecodeSteps   int
	BytesPerToken float64
	// RatePerSec is the offered Poisson rate (LoadFactor × the measured
	// compute capacity); Requests the trace length.
	RatePerSec float64
	LoadFactor float64
	Requests   int
	// Rows are the sweep points in descending capacity order (ample
	// first, starved last).
	Rows []KVSweepRow
}

// KVSweepCapacitiesGB is the default sweep, ample to starved.
func KVSweepCapacitiesGB() []float64 { return []float64{2, 1, 0.5, 0.25, 0.125} }

// Default KV-model knobs for the sweep.
const (
	// DefaultKVDecodeSteps is the per-request decode length.
	DefaultKVDecodeSteps = 32
	// DefaultKVLoadFactor keeps the sweep just under the compute
	// saturation knee, so every latency shift is the cache's doing.
	DefaultKVLoadFactor = 0.9
)

// KVSweep sweeps per-replica KV-cache capacities over the workload
// served on cfg at a fixed sub-saturation arrival rate, reporting the
// TTFT and end-to-end tails alongside preemption counts. The same
// trace seed is reused across capacities, so each row serves the same
// arrivals under a different memory ceiling.
func KVSweep(lab *Lab, w Workload, cfg gpusim.Config, requests int, capacitiesGB []float64, loadFactor float64) (KVSweepResult, error) {
	if len(capacitiesGB) == 0 {
		return KVSweepResult{}, fmt.Errorf("experiments: KV sweep needs at least one capacity")
	}
	kvs := make([]serving.KVConfig, len(capacitiesGB))
	for i, capGB := range capacitiesGB {
		kvs[i] = serving.KVConfig{CapacityBytes: capGB * 1e9, DecodeSteps: DefaultKVDecodeSteps}
		if err := kvs[i].Validate(); err != nil {
			return KVSweepResult{}, err
		}
	}
	if err := ValidateLoadFactors([]float64{loadFactor}); err != nil {
		return KVSweepResult{}, err
	}
	run, capacity, err := calibratedRunner(lab, w, cfg, requests)
	if err != nil {
		return KVSweepResult{}, err
	}
	rate := loadFactor * capacity
	trace, err := run.poisson(rate)
	if err != nil {
		return KVSweepResult{}, err
	}
	res := KVSweepResult{
		Network:       w.Name,
		Policy:        run.policy.Name(),
		DecodeSteps:   DefaultKVDecodeSteps,
		BytesPerToken: models.KVBytesPerToken(w.Model),
		RatePerSec:    rate,
		LoadFactor:    loadFactor,
		Requests:      run.requests,
	}
	for i, capGB := range capacitiesGB {
		arm, err := run.simulate(serving.FleetSpec{Trace: trace, KV: &kvs[i]})
		if err != nil {
			return KVSweepResult{}, fmt.Errorf("experiments: KV sweep %s at %gGB: %w", w.Name, capGB, err)
		}
		res.Rows = append(res.Rows, KVSweepRow{CapacityGB: capGB, FleetSummary: arm.Summary()})
	}
	return res, nil
}

// kvSweepColumns declares the capacity-vs-tail curve's table and CSV.
var kvSweepColumns = []column[KVSweepRow]{
	floatCol("capacity", "capacity_gb", fixed("%.3g GB"), func(r KVSweepRow) float64 { return r.CapacityGB }),
	floatCol("served/s", "throughput_rps", fixed("%.0f"), func(r KVSweepRow) float64 { return r.ThroughputRPS }),
	floatCol("mean TTFT", "mean_ttft_us", report.US, func(r KVSweepRow) float64 { return r.MeanTTFTUS }),
	floatCol("p99 TTFT", "p99_ttft_us", report.US, func(r KVSweepRow) float64 { return r.P99TTFTUS }),
	floatCol("p99 e2e", "p99_us", report.US, func(r KVSweepRow) float64 { return r.P99LatencyUS }),
	intCol("preempts", "preemptions", report.Count, func(r KVSweepRow) int { return r.Preemptions }),
	floatCol("peak", "peak_gb", fixed("%.2f GB"), func(r KVSweepRow) float64 { return r.KVPeakBytes / 1e9 }),
}

// Render formats the capacity-vs-tail curve.
func (r KVSweepResult) Render() string {
	return textTable(fmt.Sprintf("KV capacity sweep — %s: %s serving at %.0f req/s (%.2fx load), %d decode steps, %.0f B/token",
		r.Network, r.Policy, r.RatePerSec, r.LoadFactor, r.DecodeSteps, r.BytesPerToken), kvSweepColumns, r.Rows)
}

// CSV renders the capacity-vs-tail curve for external plotting.
func (r KVSweepResult) CSV() string { return csvTable(kvSweepColumns, r.Rows) }
