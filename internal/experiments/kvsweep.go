package experiments

import (
	"fmt"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
	"seqpoint/internal/workload"
)

// KVSweepRow is one KV-cache capacity's serving outcome.
type KVSweepRow struct {
	// CapacityGB is the per-replica cache ceiling in decimal gigabytes.
	CapacityGB float64
	// ThroughputRPS is achieved requests per second over the makespan.
	ThroughputRPS float64
	// MeanTTFTUS and P99TTFTUS are time-to-first-token statistics
	// (arrival to prefill completion).
	MeanTTFTUS, P99TTFTUS float64
	// P99US is the end-to-end p99 latency.
	P99US float64
	// Preemptions counts requests displaced by the capacity ceiling.
	Preemptions int
	// PeakGB is the largest cache footprint actually held.
	PeakGB float64
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
	if requests <= 0 {
		requests = DefaultServeRequests
	}
	if len(capacitiesGB) == 0 {
		return KVSweepResult{}, fmt.Errorf("experiments: KV sweep needs at least one capacity")
	}
	eng := lab.Engine()
	policy, err := servingPolicy(eng, w, cfg)
	if err != nil {
		return KVSweepResult{}, err
	}
	capacity, err := measureCapacity(eng, w, cfg, policy, requests)
	if err != nil {
		return KVSweepResult{}, err
	}
	_, rates, err := ScaledRates(capacity, []float64{loadFactor})
	if err != nil {
		return KVSweepResult{}, err
	}
	rate := rates[0]
	trace, err := workload.PoissonTrace(w.Train, requests, rate, w.Seed)
	if err != nil {
		return KVSweepResult{}, err
	}
	res := KVSweepResult{
		Network:       w.Name,
		Policy:        policy.Name(),
		DecodeSteps:   DefaultKVDecodeSteps,
		BytesPerToken: models.KVBytesPerToken(w.Model),
		RatePerSec:    rate,
		LoadFactor:    loadFactor,
		Requests:      requests,
	}
	for _, capGB := range capacitiesGB {
		run, err := serving.Simulate(serving.Spec{
			Model:    w.Model,
			Trace:    trace,
			Policy:   policy,
			Profiles: eng,
			KV: &serving.KVConfig{
				CapacityBytes: capGB * 1e9,
				DecodeSteps:   DefaultKVDecodeSteps,
			},
		}, cfg)
		if err != nil {
			return KVSweepResult{}, fmt.Errorf("experiments: KV sweep %s at %gGB: %w", w.Name, capGB, err)
		}
		sum := run.Summary()
		res.Rows = append(res.Rows, KVSweepRow{
			CapacityGB:    capGB,
			ThroughputRPS: sum.ThroughputRPS,
			MeanTTFTUS:    sum.MeanTTFTUS,
			P99TTFTUS:     sum.P99TTFTUS,
			P99US:         sum.P99LatencyUS,
			Preemptions:   sum.Preemptions,
			PeakGB:        sum.KVPeakBytes / 1e9,
		})
	}
	return res, nil
}

// Render formats the capacity-vs-tail curve.
func (r KVSweepResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("KV capacity sweep — %s: %s serving at %.0f req/s (%.2fx load), %d decode steps, %.0f B/token",
			r.Network, r.Policy, r.RatePerSec, r.LoadFactor, r.DecodeSteps, r.BytesPerToken),
		"capacity", "served/s", "mean TTFT", "p99 TTFT", "p99 e2e", "preempts", "peak").AlignNumeric()
	for _, row := range r.Rows {
		t.AddStringRow(
			fmt.Sprintf("%.3g GB", row.CapacityGB),
			fmt.Sprintf("%.0f", row.ThroughputRPS),
			report.US(row.MeanTTFTUS),
			report.US(row.P99TTFTUS),
			report.US(row.P99US),
			report.Count(row.Preemptions),
			fmt.Sprintf("%.2f GB", row.PeakGB))
	}
	return t.String()
}

// CSV renders the capacity-vs-tail curve for external plotting.
func (r KVSweepResult) CSV() string {
	t := report.NewTable("", "capacity_gb", "throughput_rps", "mean_ttft_us", "p99_ttft_us",
		"p99_us", "preemptions", "peak_gb")
	for _, row := range r.Rows {
		t.AddStringRow(
			fmt.Sprintf("%.6f", row.CapacityGB),
			fmt.Sprintf("%.6f", row.ThroughputRPS),
			fmt.Sprintf("%.6f", row.MeanTTFTUS),
			fmt.Sprintf("%.6f", row.P99TTFTUS),
			fmt.Sprintf("%.6f", row.P99US),
			fmt.Sprintf("%d", row.Preemptions),
			fmt.Sprintf("%.6f", row.PeakGB))
	}
	return t.CSV()
}
