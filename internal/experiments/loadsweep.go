package experiments

import (
	"fmt"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
)

// LoadSweepRow is one arrival rate's serving outcome.
type LoadSweepRow struct {
	// Factor is the offered load as a fraction of the estimated
	// capacity (1.0 = the saturation knee).
	Factor float64
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64
	// FleetSummary digests the run on one replica.
	serving.FleetSummary
}

// LoadSweepResult is the arrival-rate sweep of one workload: the
// online-serving saturation curve. Below the knee, throughput tracks
// the offered rate and latency stays near one service time; past it,
// throughput plateaus at capacity while the queue — and with it the
// p99 tail — grows without bound.
type LoadSweepResult struct {
	// Network is the workload name.
	Network string
	// Policy is the batching policy's name.
	Policy string
	// Batch is the policy's max batch size.
	Batch int
	// Requests is the per-rate trace length.
	Requests int
	// CapacityRPS is the measured saturation throughput the sweep is
	// scaled against: the achieved rate of a fully backlogged server
	// (a burst trace) under the same policy.
	CapacityRPS float64
	// Rows are the sweep points in ascending rate order.
	Rows []LoadSweepRow
}

// LoadSweepFactors is the default sweep: well under, around, and well
// past the saturation knee.
func LoadSweepFactors() []float64 { return []float64{0.25, 0.5, 0.75, 0.9, 1.1, 1.5} }

// DefaultServeRequests is the default per-rate trace length.
const DefaultServeRequests = 512

// LoadSweep sweeps Poisson arrival rates over the workload served on
// cfg with timeout-bounded dynamic batching (max batch w.Batch,
// timeout one median-SL full-batch service time). Rates are expressed
// as factors of the measured capacity: the throughput of a fully
// backlogged server under the same policy, so factor 1.0 is the
// saturation knee by construction. All per-batch pricing flows
// through the lab's engine, so the sweep shares profiles with every
// other experiment in the process; the same trace seed is reused
// across rates, so each row serves the same request mix at a
// different pace.
func LoadSweep(lab *Lab, w Workload, cfg gpusim.Config, requests int, factors []float64) (LoadSweepResult, error) {
	if err := ValidateLoadFactors(factors); err != nil {
		return LoadSweepResult{}, err
	}
	run, capacity, err := calibratedRunner(lab, w, cfg, requests)
	if err != nil {
		return LoadSweepResult{}, err
	}
	fs, rates, err := ScaledRates(capacity, factors)
	if err != nil {
		return LoadSweepResult{}, err
	}
	res := LoadSweepResult{
		Network:     w.Name,
		Policy:      run.policy.Name(),
		Batch:       w.Batch,
		Requests:    run.requests,
		CapacityRPS: capacity,
	}
	for i, f := range fs {
		trace, err := run.poisson(rates[i])
		if err != nil {
			return LoadSweepResult{}, err
		}
		arm, err := run.simulate(serving.FleetSpec{Trace: trace})
		if err != nil {
			return LoadSweepResult{}, fmt.Errorf("experiments: load sweep %s at %.4g rps: %w", w.Name, rates[i], err)
		}
		res.Rows = append(res.Rows, LoadSweepRow{Factor: f, RatePerSec: rates[i], FleetSummary: arm.Summary()})
	}
	return res, nil
}

// Knee returns the index of the last row whose offered load is at or
// below capacity (factor <= 1), or -1 when the whole sweep is
// overloaded.
func (r LoadSweepResult) Knee() int {
	knee := -1
	for i, row := range r.Rows {
		if row.Factor <= 1 {
			knee = i
		}
	}
	return knee
}

// loadSweepColumns declares the saturation curve's table and CSV.
var loadSweepColumns = []column[LoadSweepRow]{
	floatCol("load", "load_factor", fixed("%.2fx"), func(r LoadSweepRow) float64 { return r.Factor }),
	floatCol("req/s", "rate_rps", fixed("%.0f"), func(r LoadSweepRow) float64 { return r.RatePerSec }),
	floatCol("served/s", "throughput_rps", fixed("%.0f"), func(r LoadSweepRow) float64 { return r.ThroughputRPS }),
	floatCol("util", "utilization_pct", report.Pct, func(r LoadSweepRow) float64 { return r.UtilizationPct }),
	floatCol("mean batch", "mean_batch", fixed("%.1f"), func(r LoadSweepRow) float64 { return r.MeanBatch }),
	floatCol("mean wait", "mean_wait_us", report.US, func(r LoadSweepRow) float64 { return r.MeanWaitUS }),
	floatCol("p50", "p50_us", report.US, func(r LoadSweepRow) float64 { return r.P50LatencyUS }),
	floatCol("p95", "p95_us", report.US, func(r LoadSweepRow) float64 { return r.P95LatencyUS }),
	floatCol("p99", "p99_us", report.US, func(r LoadSweepRow) float64 { return r.P99LatencyUS }),
	intCol("", "batches", nil, func(r LoadSweepRow) int { return r.Batches }),
}

// Render formats the saturation curve.
func (r LoadSweepResult) Render() string {
	return textTable(fmt.Sprintf("Load sweep — %s: %s serving, capacity ≈ %.0f req/s (%d requests/rate)",
		r.Network, r.Policy, r.CapacityRPS, r.Requests), loadSweepColumns, r.Rows)
}

// CSV renders the saturation curve for external plotting.
func (r LoadSweepResult) CSV() string { return csvTable(loadSweepColumns, r.Rows) }
