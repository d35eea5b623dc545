package experiments

import (
	"errors"
	"fmt"
	"strconv"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/planner"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
	"seqpoint/internal/trainer"
	"seqpoint/internal/workload"
)

// This file is the planner's probe seam over the profile-backed fleet
// simulator: PlanProbe turns a workload + hardware configuration into
// a planner.Probe, and PlanSweep runs the planner across a grid of SLO
// tightnesses for the suite.

// PlanProbeConfig shapes the fleet every candidate is priced on.
type PlanProbeConfig struct {
	// Requests is the arrival-trace length priced per probe; <= 0 uses
	// DefaultServeRequests.
	Requests int
	// QueueCap bounds each replica's admission queue; 0 is unbounded.
	QueueCap int
	// KV is the base KV-cache configuration; candidates with a
	// KVCapacityGB override its capacity (enabling the model with
	// DefaultKVDecodeSteps when KV is nil).
	KV *serving.KVConfig
	// Policy is the base batching policy; nil derives the sweeps'
	// shared dynamic policy from the workload (one full-batch service
	// time at the median SL).
	Policy serving.Policy
	// PolicyTimeoutUS is the batching window used when a candidate
	// names a policy override, as given: 0 serves a request as soon as
	// it waits.
	PolicyTimeoutUS float64
	// Trace, when set, replaces the per-rate Poisson traces with this
	// recorded trace rescaled to each probed rate (ScaleToRate): the
	// planner searches the load axis by compressing or dilating the
	// trace's own arrival shape — diurnal peaks, clumps and tenant mix
	// included — instead of substituting a memoryless process.
	Trace *serving.Trace
}

// PlanProbe builds a planner probe for w served on cfg: one call
// simulates one candidate fleet against a Poisson trace at the asked
// rate, under the candidate's routing, batching-policy and KV-capacity
// overrides. The probe prepares once per plan: it draws the seed's
// Poisson gaps and SLs once, caches parsed policies, and prices every
// candidate through one serving.Runner, which keeps its run arrays and
// its price table from probe to probe. It keeps one trace, the last
// rate's, and builds any other rate into that trace's array: a Solve
// probes its search rate first and never returns to it, and each knee
// rate is new, so a plan builds as many traces as a cache of every
// rate would. A summary holds nothing of the trace it was simulated
// on, so a rebuild changes none returned before it. Each call is
// still a pure function of its candidate and rate: the runner's state
// changes no summary byte, and a fresh router per call starts po2's
// RNG and rr's cursor over, so a probe's answer is what /v1/fleet
// reports for the same fleet. The state belongs to the one probe, so
// plans share nothing, and it is unsynchronized, matching
// planner.Probe's sequential contract.
func PlanProbe(eng trainer.ProfileSource, w Workload, cfg gpusim.Config, pc PlanProbeConfig) (planner.Probe, error) {
	if pc.Requests <= 0 {
		pc.Requests = DefaultServeRequests
	}
	base := pc.Policy
	if base == nil {
		var err error
		if base, err = servingPolicy(eng, w, cfg); err != nil {
			return nil, err
		}
	}
	var (
		runner    serving.Runner
		draws     *workload.PoissonDraws
		trace     serving.Trace
		traceRate float64 // trace's rate; 0 until the first build
	)
	policies := map[string]serving.Policy{"": base}
	return func(c planner.Candidate, ratePerSec float64) (serving.FleetSummary, error) {
		var zero serving.FleetSummary
		if ratePerSec != traceRate || traceRate == 0 {
			var (
				next serving.Trace
				err  error
			)
			if pc.Trace != nil {
				next, err = pc.Trace.ScaleToRate(ratePerSec)
			} else {
				if draws == nil {
					draws, err = workload.NewPoissonDraws(w.Train, pc.Requests, w.Seed)
				}
				if err == nil {
					next, err = draws.TraceInto(trace.Requests, ratePerSec)
				}
			}
			if err != nil {
				return zero, err
			}
			trace, traceRate = next, ratePerSec
		}
		policy, ok := policies[c.Policy]
		if !ok {
			var err error
			policy, err = serving.ParsePolicy(c.Policy, w.Batch, pc.PolicyTimeoutUS)
			if err != nil {
				return zero, err
			}
			policies[c.Policy] = policy
		}
		router, err := serving.ParseRouting(c.Routing, w.Seed)
		if err != nil {
			return zero, err
		}
		kv := pc.KV
		if c.KVCapacityGB > 0 {
			k := serving.KVConfig{DecodeSteps: DefaultKVDecodeSteps}
			if kv != nil {
				k = *kv
			}
			k.CapacityBytes = c.KVCapacityGB * 1e9
			kv = &k
		}
		sum, err := runner.Run(serving.FleetSpec{
			Model:    w.Model,
			Trace:    trace,
			Policy:   policy,
			Router:   router,
			Replicas: c.Replicas,
			QueueCap: pc.QueueCap,
			Profiles: eng,
			KV:       kv,
			Stop:     c.Stop,
		}, cfg)
		if err != nil {
			return zero, fmt.Errorf("experiments: plan probe %s ×%d %s: %w", w.Name, c.Replicas, c.Routing, err)
		}
		return sum, nil
	}, nil
}

// PlanSweep defaults.
const (
	// DefaultPlanLoadReplicas offers 2.5× one replica's capacity, so a
	// single replica is hopelessly overloaded and the latency budget
	// decides how far past the load floor the plan must go.
	DefaultPlanLoadReplicas = 2.5
	// planSweepMaxReplicas bounds the suite's replica search.
	planSweepMaxReplicas = 8
	// planSweepKneeIters keeps the suite's knee bisection cheap; the
	// planner default is finer.
	planSweepKneeIters = 6
)

// PlanSweepBudgets is the default SLO-tightness axis: p99 latency
// budgets in units of one full-batch service time, loose to tight.
// Sub-service-time budgets are meetable — dynamic batching closes
// most batches well short of full — they just take more replicas.
func PlanSweepBudgets() []float64 { return []float64{4, 1.5, 0.75} }

// PlanSweepRoutings is the routing axis the suite's planner searches.
func PlanSweepRoutings() []string {
	return []string{serving.RoutingRoundRobin, serving.RoutingJSQ}
}

// PlanRow is one SLO point's planning outcome.
type PlanRow struct {
	// P99BudgetUS is the latency target; Feasible whether any
	// in-bounds fleet met it (the remaining fields are zero when not).
	P99BudgetUS float64
	Feasible    bool
	// Replicas and Routing identify the minimal plan.
	Replicas int
	Routing  string
	// ThroughputRPS and P99US locate the plan's operating point.
	ThroughputRPS float64
	P99US         float64
	// HeadroomPct is the tightest target's margin; Bottleneck the
	// saturating resource; KneeRPS where the plan leaves the SLO box.
	HeadroomPct float64
	Bottleneck  string
	KneeRPS     float64
	// Evaluations counts simulator probes the search spent.
	Evaluations int
}

// PlanSweepResult is the planner run across a grid of latency budgets
// at a fixed offered rate: the inverse of FleetSweep — instead of
// reading the knee off a grid, each row is the minimal fleet the
// planner found for one SLO tightness.
type PlanSweepResult struct {
	// Network is the workload name; Policy the per-replica batching
	// policy.
	Network string
	Policy  string
	// Batch, Requests, QueueCap and MaxReplicas shape each probe.
	Batch       int
	Requests    int
	QueueCap    int
	MaxReplicas int
	// CapacityRPS is one replica's measured saturation throughput;
	// RatePerSec the offered rate every plan must carry.
	CapacityRPS float64
	RatePerSec  float64
	// Rows are the per-budget plans, loosest budget first.
	Rows []PlanRow
}

// PlanSweep plans the workload's fleet for each p99 budget (in units
// of one full-batch service time) at DefaultPlanLoadReplicas× one
// replica's capacity, requiring zero drops. A throughput floor would
// be the wrong second dimension on a finite trace — measured
// throughput divides by a horizon that includes the final batch
// drain, so it undershoots the offered rate even when every request
// is served; zero drops is the trace-length-independent way to say
// "carry the whole load". Budgets default to PlanSweepBudgets.
func PlanSweep(lab *Lab, w Workload, cfg gpusim.Config, requests int, budgets []float64) (PlanSweepResult, error) {
	if len(budgets) == 0 {
		budgets = PlanSweepBudgets()
	}
	if err := ValidateLoadFactors(budgets); err != nil {
		return PlanSweepResult{}, err
	}
	run, capacity, err := calibratedRunner(lab, w, cfg, requests)
	if err != nil {
		return PlanSweepResult{}, err
	}
	res := PlanSweepResult{
		Network:     w.Name,
		Policy:      run.policy.Name(),
		Batch:       w.Batch,
		Requests:    run.requests,
		QueueCap:    fleetQueueCapBatches * w.Batch,
		MaxReplicas: planSweepMaxReplicas,
		CapacityRPS: capacity,
		RatePerSec:  DefaultPlanLoadReplicas * capacity,
	}
	probe, err := PlanProbe(run.eng, w, cfg, PlanProbeConfig{
		Requests: run.requests,
		QueueCap: res.QueueCap,
		Policy:   run.policy,
	})
	if err != nil {
		return PlanSweepResult{}, err
	}
	// One full-batch service time at the median SL, recovered from the
	// capacity probe: budgets scale off it so the same factors mean the
	// same tightness for every workload.
	serviceUS := float64(w.Batch) / capacity * 1e6
	noDrops := 0.0
	for _, b := range budgets {
		row := PlanRow{P99BudgetUS: b * serviceUS}
		plan, err := planner.Solve(planner.Spec{
			SLO: planner.SLO{
				LatencyP99US:   row.P99BudgetUS,
				MaxDropRatePct: &noDrops,
			},
			RatePerSec:  res.RatePerSec,
			MaxReplicas: planSweepMaxReplicas,
			Routings:    PlanSweepRoutings(),
			KneeIters:   planSweepKneeIters,
			Probe:       probe,
		})
		switch {
		case errors.Is(err, planner.ErrInfeasible):
			// Leave the row marked infeasible; the budget is simply
			// tighter than this workload can serve within bounds.
		case err != nil:
			return PlanSweepResult{}, fmt.Errorf("experiments: plan sweep %s budget %.1f: %w", w.Name, b, err)
		default:
			row.Feasible = true
			row.Replicas = plan.Replicas
			row.Routing = plan.Routing
			row.ThroughputRPS = plan.Summary.ThroughputRPS
			row.P99US = plan.Summary.P99LatencyUS
			row.HeadroomPct = plan.Saturation.SLOHeadroomPct
			row.Bottleneck = plan.Saturation.Bottleneck
			row.KneeRPS = plan.Saturation.KneeRPS
			row.Evaluations = plan.Evaluations
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// planSweepColumns declares the per-budget plans' table and CSV.
var planSweepColumns = []column[PlanRow]{
	floatCol("p99 budget", "p99_budget_us", report.US, func(r PlanRow) float64 { return r.P99BudgetUS }),
	{csv: "feasible", export: func(r PlanRow) string { return strconv.FormatBool(r.Feasible) }},
	ifFeasible("—", intCol("replicas", "replicas", strconv.Itoa, func(r PlanRow) int { return r.Replicas })),
	ifFeasible("infeasible", textCol("routing", "routing", func(r PlanRow) string { return r.Routing })),
	ifFeasible("—", floatCol("served/s", "throughput_rps", fixed("%.0f"), func(r PlanRow) float64 { return r.ThroughputRPS })),
	ifFeasible("—", floatCol("p99", "p99_us", report.US, func(r PlanRow) float64 { return r.P99US })),
	ifFeasible("—", floatCol("headroom", "headroom_pct", report.Pct, func(r PlanRow) float64 { return r.HeadroomPct })),
	ifFeasible("—", textCol("bottleneck", "bottleneck", func(r PlanRow) string { return r.Bottleneck })),
	ifFeasible("—", floatCol("knee req/s", "knee_rps", fixed("%.0f"), func(r PlanRow) float64 { return r.KneeRPS })),
	ifFeasible("—", intCol("probes", "evaluations", strconv.Itoa, func(r PlanRow) int { return r.Evaluations })),
}

// ifFeasible shows otherwise in place of c's text cell on infeasible
// rows.
func ifFeasible(otherwise string, c column[PlanRow]) column[PlanRow] {
	show := c.show
	c.show = func(r PlanRow) string {
		if !r.Feasible {
			return otherwise
		}
		return show(r)
	}
	return c
}

// Render formats the per-budget plans.
func (r PlanSweepResult) Render() string {
	return textTable(fmt.Sprintf("Capacity planner — %s: %s per replica, %.0f req/s offered (%.1fx one replica), ≤%d replicas",
		r.Network, r.Policy, r.RatePerSec, r.RatePerSec/r.CapacityRPS, r.MaxReplicas), planSweepColumns, r.Rows)
}

// CSV renders the per-budget plans for external plotting.
func (r PlanSweepResult) CSV() string { return csvTable(planSweepColumns, r.Rows) }
