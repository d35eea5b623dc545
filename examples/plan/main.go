// Example plan answers the capacity question in the inverse direction
// of examples/fleet: instead of pricing a fleet shape you picked, it
// hands SolvePlan an SLO — p99 latency under 180 ms, at least 400
// req/s served, zero drops — and lets the planner binary-search
// replicas across four routing disciplines for the cheapest fleet that
// meets it. The probe is an ordinary closure over the deterministic
// fleet simulator, so the whole search is seeded end to end and prints
// the same plan on every run.
package main

import (
	"fmt"
	"log"

	"seqpoint"
)

const (
	rate     = 700 // offered load to plan for, req/s
	requests = 160
	queueCap = 24
	seed     = 42
)

func main() {
	// A synthetic corpus with real sequence-length skew: short and
	// long requests interleave, which is what makes batch service
	// times uneven and capacity planning non-trivial.
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	corpus, err := seqpoint.Synthetic("plan-demo", lengths, 1000)
	if err != nil {
		log.Fatal(err)
	}

	// One shared profile engine: candidates re-use each other's
	// per-batch-size profiles, so the search stays fast.
	eng := seqpoint.NewEngine()

	// The probe prices one candidate fleet at one offered rate. The
	// planner varies the rate during knee analysis, so the trace is
	// rebuilt per call from the same seed.
	probe := func(c seqpoint.PlanCandidate, rate float64) (seqpoint.FleetSummary, error) {
		trace, err := seqpoint.PoissonTrace(corpus, requests, rate, seed)
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		policy, err := seqpoint.NewDynamicBatch(16, 20_000)
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		router, err := seqpoint.ParseRouting(c.Routing, seed)
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		res, err := seqpoint.SimulateFleet(seqpoint.FleetSpec{
			Model:    seqpoint.NewGNMT(),
			Trace:    trace,
			Policy:   policy,
			Router:   router,
			Replicas: c.Replicas,
			QueueCap: queueCap,
			Profiles: eng,
			Stop:     c.Stop,
		}, seqpoint.VegaFE())
		if err != nil {
			return seqpoint.FleetSummary{}, err
		}
		return res.Summary(), nil
	}

	noDrops := 0.0
	plan, err := seqpoint.SolvePlan(seqpoint.PlanSpec{
		SLO: seqpoint.PlanSLO{
			LatencyP99US:     180_000,
			MinThroughputRPS: 400,
			MaxDropRatePct:   &noDrops,
		},
		RatePerSec:  rate,
		MaxReplicas: 8,
		Probe:       probe,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("plan for %d req/s of GNMT on config %s replicas:\n\n", rate, seqpoint.VegaFE().Name)
	fmt.Printf("  %d replicas, %s routing, %s batching (%d probe evaluations)\n",
		plan.Replicas, plan.Routing, plan.Policy, plan.Evaluations)
	fmt.Printf("  cost %.1f replica-seconds, throughput %.1f req/s, p99 %.1f ms\n\n",
		plan.CostReplicaSeconds, plan.Summary.ThroughputRPS, plan.Summary.P99LatencyUS/1000)

	for _, d := range plan.SLO {
		status := "met"
		if !d.OK {
			status = "VIOLATED"
		}
		fmt.Printf("  %-18s target %10.6g  achieved %10.6g  headroom %+6.1f%%  %s\n",
			d.Name, d.Target, d.Achieved, d.HeadroomPct, status)
	}

	sat := plan.Saturation
	fmt.Printf("\n  bottleneck %s (compute %.1f%%, queue %.1f%%)\n",
		sat.Bottleneck, sat.ComputePct, sat.QueuePct)
	fmt.Printf("  knee: SLO holds up to %.1f req/s (%.2fx the planned rate)\n",
		sat.KneeRPS, sat.KneeFactor)
}
