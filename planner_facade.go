package seqpoint

import "seqpoint/internal/planner"

// SLO-driven capacity planning (internal/planner): the inverse of the
// serving simulators. Instead of pricing a fleet you chose, SolvePlan
// searches replicas × routing × batching (× KV capacity) for the
// minimal-cost fleet that meets an SLO, probing candidates through a
// caller-supplied PlanProbeFunc — typically a closure over
// SimulateFleet (see examples/plan) — and returns the chosen plan with
// a saturation analysis: per-target headroom, which resource saturates
// first, and the knee rate where the plan leaves the SLO box.
type (
	// PlanSLO is the target envelope a plan must meet; at least one
	// target must be set.
	PlanSLO = planner.SLO
	// PlanSpec is one planning problem: SLO, offered rate, search
	// bounds and the probe.
	PlanSpec = planner.Spec
	// PlanCandidate is one searched fleet shape (replicas, routing,
	// optional policy/KV overrides), plus the stop rule of a
	// verdict-only probe, which a probe may pass on as FleetSpec.Stop.
	PlanCandidate = planner.Candidate
	// PlanProbeFunc prices one candidate at one offered rate. It may
	// keep caches and buffers across calls, as long as its answer stays
	// a pure function of the two; a stateful piece whose state would
	// reach the answer, such as the router, is built per call.
	PlanProbeFunc = planner.Probe
	// CapacityPlan is the planner's answer: the minimal candidate, its
	// SLO evidence and its saturation analysis.
	CapacityPlan = planner.Plan
	// PlanDimension is one SLO target checked against a summary.
	PlanDimension = planner.Dimension
	// PlanSaturation is the headroom/bottleneck/knee analysis.
	PlanSaturation = planner.Saturation
)

var (
	// SolvePlan searches the candidate space for the minimal-cost plan
	// meeting the SLO.
	SolvePlan = planner.Solve
	// DefaultPlanRoutings is the routing axis searched when a spec
	// leaves it empty.
	DefaultPlanRoutings = planner.DefaultRoutings
)

// ErrPlanInfeasible reports that no candidate within a spec's bounds
// meets the SLO; test with errors.Is.
var ErrPlanInfeasible = planner.ErrInfeasible

// Saturation bottleneck names returned in PlanSaturation.Bottleneck.
const (
	PlanBottleneckCompute = planner.BottleneckCompute
	PlanBottleneckQueue   = planner.BottleneckQueue
	PlanBottleneckKVBytes = planner.BottleneckKVBytes
)
