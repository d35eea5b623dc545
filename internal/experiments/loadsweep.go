package experiments

import (
	"fmt"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
	"seqpoint/internal/workload"
)

// LoadSweepRow is one arrival rate's serving outcome.
type LoadSweepRow struct {
	// Factor is the offered load as a fraction of the estimated
	// capacity (1.0 = the saturation knee).
	Factor float64
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64
	// ThroughputRPS is achieved requests per second over the makespan.
	ThroughputRPS float64
	// UtilizationPct is the server's busy share of the makespan.
	UtilizationPct float64
	// MeanBatch is the mean launched batch size.
	MeanBatch float64
	// MeanWaitUS is the mean queueing delay.
	MeanWaitUS float64
	// P50US, P95US and P99US are end-to-end latency percentiles.
	P50US, P95US, P99US float64
	// Batches is the number of launched batches.
	Batches int
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
	if requests <= 0 {
		requests = DefaultServeRequests
	}
	// Validate the grid before the capacity probe: bad factors must
	// fail before any simulation work.
	if err := ValidateLoadFactors(factors); err != nil {
		return LoadSweepResult{}, err
	}
	eng := lab.Engine()
	policy, err := servingPolicy(eng, w, cfg)
	if err != nil {
		return LoadSweepResult{}, err
	}

	// Measure capacity: a backlogged burst through the same policy
	// always launches full batches, so its throughput is the server's
	// saturation rate on this request mix.
	capacity, err := measureCapacity(eng, w, cfg, policy, requests)
	if err != nil {
		return LoadSweepResult{}, err
	}
	fs, rates, err := ScaledRates(capacity, factors)
	if err != nil {
		return LoadSweepResult{}, err
	}
	res := LoadSweepResult{
		Network:     w.Name,
		Policy:      policy.Name(),
		Batch:       w.Batch,
		Requests:    requests,
		CapacityRPS: capacity,
	}
	for i, f := range fs {
		rate := rates[i]
		trace, err := workload.PoissonTrace(w.Train, requests, rate, w.Seed)
		if err != nil {
			return LoadSweepResult{}, err
		}
		run, err := serving.Simulate(serving.Spec{
			Model:    w.Model,
			Trace:    trace,
			Policy:   policy,
			Profiles: eng,
		}, cfg)
		if err != nil {
			return LoadSweepResult{}, fmt.Errorf("experiments: load sweep %s at %.4g rps: %w", w.Name, rate, err)
		}
		sum := run.Summary()
		res.Rows = append(res.Rows, LoadSweepRow{
			Factor:         f,
			RatePerSec:     rate,
			ThroughputRPS:  sum.ThroughputRPS,
			UtilizationPct: sum.UtilizationPct,
			MeanBatch:      sum.MeanBatch,
			MeanWaitUS:     sum.MeanWaitUS,
			P50US:          sum.P50LatencyUS,
			P95US:          sum.P95LatencyUS,
			P99US:          sum.P99LatencyUS,
			Batches:        sum.Batches,
		})
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

// Render formats the saturation curve.
func (r LoadSweepResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Load sweep — %s: %s serving, capacity ≈ %.0f req/s (%d requests/rate)",
			r.Network, r.Policy, r.CapacityRPS, r.Requests),
		"load", "req/s", "served/s", "util", "mean batch", "mean wait", "p50", "p95", "p99").AlignNumeric()
	for _, row := range r.Rows {
		t.AddStringRow(
			fmt.Sprintf("%.2fx", row.Factor),
			fmt.Sprintf("%.0f", row.RatePerSec),
			fmt.Sprintf("%.0f", row.ThroughputRPS),
			report.Pct(row.UtilizationPct),
			fmt.Sprintf("%.1f", row.MeanBatch),
			report.US(row.MeanWaitUS),
			report.US(row.P50US),
			report.US(row.P95US),
			report.US(row.P99US))
	}
	return t.String()
}

// CSV renders the saturation curve for external plotting.
func (r LoadSweepResult) CSV() string {
	t := report.NewTable("", "load_factor", "rate_rps", "throughput_rps", "utilization_pct",
		"mean_batch", "mean_wait_us", "p50_us", "p95_us", "p99_us", "batches")
	for _, row := range r.Rows {
		t.AddStringRow(
			fmt.Sprintf("%.6f", row.Factor),
			fmt.Sprintf("%.6f", row.RatePerSec),
			fmt.Sprintf("%.6f", row.ThroughputRPS),
			fmt.Sprintf("%.6f", row.UtilizationPct),
			fmt.Sprintf("%.6f", row.MeanBatch),
			fmt.Sprintf("%.6f", row.MeanWaitUS),
			fmt.Sprintf("%.6f", row.P50US),
			fmt.Sprintf("%.6f", row.P95US),
			fmt.Sprintf("%.6f", row.P99US),
			fmt.Sprintf("%d", row.Batches))
	}
	return t.CSV()
}
