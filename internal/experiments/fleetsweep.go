package experiments

import (
	"fmt"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
	"seqpoint/internal/workload"
)

// FleetSweepRow is one (replica count × routing policy) cell's
// serving outcome.
type FleetSweepRow struct {
	// Replicas is the fleet size; Routing the router's name.
	Replicas int
	Routing  string
	// RatePerSec is the offered Poisson rate (LoadFactor × Replicas ×
	// per-replica capacity).
	RatePerSec float64
	// ThroughputRPS is achieved requests per second over the makespan.
	ThroughputRPS float64
	// Rejected counts admission drops; DropPct is their share of the
	// offered trace.
	Rejected int
	DropPct  float64
	// MeanWaitUS is the mean queueing delay of served requests.
	MeanWaitUS float64
	// P50US, P95US and P99US are end-to-end latency percentiles.
	P50US, P95US, P99US float64
	// ReplicaSeconds is the fleet's cost proxy over the run.
	ReplicaSeconds float64
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
// capacity. The batching policy, the capacity probe and the
// capacity-scaled rate construction are shared with LoadSweep; every
// fleet size serves one seeded trace, reused across routing policies.
func FleetSweep(lab *Lab, w Workload, cfg gpusim.Config, requests int, replicaCounts []int, routings []string, loadFactor float64) (FleetSweepResult, error) {
	if requests <= 0 {
		requests = DefaultServeRequests
	}
	if len(replicaCounts) == 0 {
		return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep needs at least one replica count")
	}
	for _, n := range replicaCounts {
		if n < 1 {
			return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep replica count %d, want >= 1", n)
		}
	}
	if len(routings) == 0 {
		return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep needs at least one routing policy")
	}
	if err := ValidateLoadFactors([]float64{loadFactor}); err != nil {
		return FleetSweepResult{}, err
	}
	eng := lab.Engine()
	policy, err := servingPolicy(eng, w, cfg)
	if err != nil {
		return FleetSweepResult{}, err
	}
	capacity, err := measureCapacity(eng, w, cfg, policy, requests)
	if err != nil {
		return FleetSweepResult{}, err
	}
	res := FleetSweepResult{
		Network:     w.Name,
		Policy:      policy.Name(),
		Batch:       w.Batch,
		Requests:    requests,
		QueueCap:    fleetQueueCapBatches * w.Batch,
		CapacityRPS: capacity,
		LoadFactor:  loadFactor,
	}
	for _, n := range replicaCounts {
		// One rate per fleet size: loadFactor × the fleet's aggregate
		// capacity, through the same grid construction LoadSweep uses.
		_, rates, err := ScaledRates(capacity*float64(n), []float64{loadFactor})
		if err != nil {
			return FleetSweepResult{}, err
		}
		rate := rates[0]
		trace, err := workload.PoissonTrace(w.Train, requests, rate, w.Seed)
		if err != nil {
			return FleetSweepResult{}, err
		}
		for _, routing := range routings {
			router, err := serving.ParseRouting(routing, w.Seed)
			if err != nil {
				return FleetSweepResult{}, err
			}
			run, err := serving.SimulateFleet(serving.FleetSpec{
				Model:    w.Model,
				Trace:    trace,
				Policy:   policy,
				Router:   router,
				Replicas: n,
				QueueCap: res.QueueCap,
				Profiles: eng,
			}, cfg)
			if err != nil {
				return FleetSweepResult{}, fmt.Errorf("experiments: fleet sweep %s ×%d %s: %w", w.Name, n, routing, err)
			}
			sum := run.Summary()
			res.Rows = append(res.Rows, FleetSweepRow{
				Replicas:       n,
				Routing:        routing,
				RatePerSec:     rate,
				ThroughputRPS:  sum.ThroughputRPS,
				Rejected:       sum.Rejected,
				DropPct:        sum.DropRatePct,
				MeanWaitUS:     sum.MeanWaitUS,
				P50US:          sum.P50LatencyUS,
				P95US:          sum.P95LatencyUS,
				P99US:          sum.P99LatencyUS,
				ReplicaSeconds: sum.ReplicaSeconds,
			})
		}
	}
	return res, nil
}

// Render formats the replicas × routing grid.
func (r FleetSweepResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Fleet sweep — %s: %s per replica, %.2fx aggregate capacity (≈ %.0f req/s each), queue cap %d",
			r.Network, r.Policy, r.LoadFactor, r.CapacityRPS, r.QueueCap),
		"replicas", "routing", "req/s", "served/s", "drop", "mean wait", "p50", "p95", "p99", "replica-s").AlignNumeric()
	for _, row := range r.Rows {
		t.AddStringRow(
			fmt.Sprintf("%d", row.Replicas),
			row.Routing,
			fmt.Sprintf("%.0f", row.RatePerSec),
			fmt.Sprintf("%.0f", row.ThroughputRPS),
			report.Pct(row.DropPct),
			report.US(row.MeanWaitUS),
			report.US(row.P50US),
			report.US(row.P95US),
			report.US(row.P99US),
			fmt.Sprintf("%.2f", row.ReplicaSeconds))
	}
	return t.String()
}

// CSV renders the grid for external plotting.
func (r FleetSweepResult) CSV() string {
	t := report.NewTable("", "replicas", "routing", "rate_rps", "throughput_rps", "rejected",
		"drop_pct", "mean_wait_us", "p50_us", "p95_us", "p99_us", "replica_seconds")
	for _, row := range r.Rows {
		t.AddStringRow(
			fmt.Sprintf("%d", row.Replicas),
			row.Routing,
			fmt.Sprintf("%.6f", row.RatePerSec),
			fmt.Sprintf("%.6f", row.ThroughputRPS),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%.6f", row.DropPct),
			fmt.Sprintf("%.6f", row.MeanWaitUS),
			fmt.Sprintf("%.6f", row.P50US),
			fmt.Sprintf("%.6f", row.P95US),
			fmt.Sprintf("%.6f", row.P99US),
			fmt.Sprintf("%.6f", row.ReplicaSeconds))
	}
	return t.CSV()
}
