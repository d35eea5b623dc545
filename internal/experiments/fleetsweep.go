package experiments

import (
	"fmt"
	"strconv"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
)

// FleetSweepRow is one (replica count × routing policy) cell's
// serving outcome.
type FleetSweepRow struct {
	// Routing is the router's requested name; the embedded summary's
	// Routing holds the resolved one (po2 with its seed).
	Routing string
	// RatePerSec is the offered Poisson rate (LoadFactor × Replicas ×
	// per-replica capacity).
	RatePerSec float64
	// FleetSummary digests the cell's run.
	serving.FleetSummary
}

// FleetSweepResult is the (replicas × routing) grid of one workload at
// a fixed load factor: the capacity-planning question "how many
// replicas, and does smarter routing buy latency?" answered on one
// seeded trace per fleet size, so routing policies within a row group
// are compared on identical arrivals.
type FleetSweepResult struct {
	// Network is the workload name; Policy the per-replica batching
	// policy.
	Network string
	Policy  string
	// Batch is the policy's max batch; Requests the per-cell trace
	// length; QueueCap the per-replica admission bound.
	Batch    int
	Requests int
	QueueCap int
	// CapacityRPS is the measured per-replica saturation throughput the
	// offered rates scale from; LoadFactor the offered fraction of each
	// fleet's aggregate capacity.
	CapacityRPS float64
	LoadFactor  float64
	// Rows are the grid cells, replicas-major in input order.
	Rows []FleetSweepRow
}

// FleetSweepReplicaCounts is the default fleet-size axis.
func FleetSweepReplicaCounts() []int { return []int{1, 2, 4} }

// FleetSweepRoutings is the default routing axis: the oblivious
// baseline first, then the queue-aware policies.
func FleetSweepRoutings() []string {
	return []string{serving.RoutingRoundRobin, serving.RoutingLeastOutstanding, serving.RoutingJSQ, serving.RoutingPowerOfTwo}
}

// DefaultFleetLoadFactor offers 110% of aggregate capacity: just past
// the knee, where routing quality shows up in the latency tail and the
// bounded queues start dropping.
const DefaultFleetLoadFactor = 1.1

// fleetQueueCapBatches sizes each replica's admission queue in units
// of the batching policy's max batch.
const fleetQueueCapBatches = 8

// FleetSweep sweeps fleet size against routing policy for the workload
// served on cfg, at a fixed fraction of each fleet's aggregate
// capacity. The batching policy and the capacity probe are shared
// with LoadSweep; every fleet size serves one seeded trace, reused
// across routing policies.
func FleetSweep(lab *Lab, w Workload, cfg gpusim.Config, requests int, replicaCounts []int, routings []string, loadFactor float64) (FleetSweepResult, error) {
	if len(replicaCounts) == 0 {
		return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep needs at least one replica count")
	}
	for _, n := range replicaCounts {
		if n < 1 || n > serving.MaxFleetReplicas {
			return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep replica count %d, want 1..%d", n, serving.MaxFleetReplicas)
		}
	}
	if len(routings) == 0 {
		return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep needs at least one routing policy")
	}
	for _, routing := range routings {
		if routing == serving.RoutingKV {
			return FleetSweepResult{}, fmt.Errorf("experiments: %q routing needs the KV model, which fleet sweeps run without", routing)
		}
		if _, err := serving.ParseRouting(routing, w.Seed); err != nil {
			return FleetSweepResult{}, err
		}
	}
	if err := ValidateLoadFactors([]float64{loadFactor}); err != nil {
		return FleetSweepResult{}, err
	}
	run, capacity, err := calibratedRunner(lab, w, cfg, requests)
	if err != nil {
		return FleetSweepResult{}, err
	}
	res := FleetSweepResult{
		Network:     w.Name,
		Policy:      run.policy.Name(),
		Batch:       w.Batch,
		Requests:    run.requests,
		QueueCap:    fleetQueueCapBatches * w.Batch,
		CapacityRPS: capacity,
		LoadFactor:  loadFactor,
	}
	for _, n := range replicaCounts {
		// One rate per fleet size: loadFactor × the fleet's aggregate
		// capacity.
		rate := loadFactor * (capacity * float64(n))
		trace, err := run.poisson(rate)
		if err != nil {
			return FleetSweepResult{}, err
		}
		for _, routing := range routings {
			// A fresh router per cell: po2 draws from a seeded stream.
			router, err := serving.ParseRouting(routing, w.Seed)
			if err != nil {
				return FleetSweepResult{}, err
			}
			arm, err := run.simulate(serving.FleetSpec{Trace: trace, Router: router, Replicas: n, QueueCap: res.QueueCap})
			if err != nil {
				return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep %s ×%d %s: %w", w.Name, n, routing, err)
			}
			res.Rows = append(res.Rows, FleetSweepRow{Routing: routing, RatePerSec: rate, FleetSummary: arm.Summary()})
		}
	}
	return res, nil
}

// fleetSweepColumns declares the replicas × routing grid's table and
// CSV.
var fleetSweepColumns = []column[FleetSweepRow]{
	intCol("replicas", "replicas", strconv.Itoa, func(r FleetSweepRow) int { return r.Replicas }),
	textCol("routing", "routing", func(r FleetSweepRow) string { return r.Routing }),
	floatCol("req/s", "rate_rps", fixed("%.0f"), func(r FleetSweepRow) float64 { return r.RatePerSec }),
	floatCol("served/s", "throughput_rps", fixed("%.0f"), func(r FleetSweepRow) float64 { return r.ThroughputRPS }),
	intCol("", "rejected", nil, func(r FleetSweepRow) int { return r.Rejected }),
	floatCol("drop", "drop_pct", report.Pct, func(r FleetSweepRow) float64 { return r.DropRatePct }),
	floatCol("mean wait", "mean_wait_us", report.US, func(r FleetSweepRow) float64 { return r.MeanWaitUS }),
	floatCol("p50", "p50_us", report.US, func(r FleetSweepRow) float64 { return r.P50LatencyUS }),
	floatCol("p95", "p95_us", report.US, func(r FleetSweepRow) float64 { return r.P95LatencyUS }),
	floatCol("p99", "p99_us", report.US, func(r FleetSweepRow) float64 { return r.P99LatencyUS }),
	floatCol("replica-s", "replica_seconds", fixed("%.2f"), func(r FleetSweepRow) float64 { return r.ReplicaSeconds }),
}

// Render formats the replicas × routing grid.
func (r FleetSweepResult) Render() string {
	return textTable(fmt.Sprintf("Fleet sweep — %s: %s per replica, %.2fx aggregate capacity (≈ %.0f req/s each), queue cap %d",
		r.Network, r.Policy, r.LoadFactor, r.CapacityRPS, r.QueueCap), fleetSweepColumns, r.Rows)
}

// CSV renders the grid for external plotting.
func (r FleetSweepResult) CSV() string { return csvTable(fleetSweepColumns, r.Rows) }
