package server

import (
	"fmt"
	"math"

	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/planner"
	"seqpoint/internal/serving"
	"seqpoint/internal/trainer"
)

// Defaults and bounds for PlanRequest fields.
const (
	// DefaultPlanMaxReplicas bounds the replica search when the request
	// leaves it zero.
	DefaultPlanMaxReplicas = planner.DefaultMaxReplicas
	// maxPlanAxis caps one search axis's length; maxPlanCombos caps the
	// routing × policy × KV cross product. Each combination costs
	// O(log max_replicas) fleet simulations, so the caps bound one
	// request's work the way replicas and requests already are.
	maxPlanAxis   = 8
	maxPlanCombos = 32
)

// PlanSLO is the wire form of the planner's target envelope. Zero
// (or absent) targets are untargeted; at least one must be set.
type PlanSLO struct {
	// TTFTP99US caps p99 time-to-first-token; needs the KV model.
	TTFTP99US float64 `json:"ttft_p99_us,omitempty"`
	// LatencyP99US caps p99 end-to-end latency.
	LatencyP99US float64 `json:"latency_p99_us,omitempty"`
	// MinThroughputRPS floors served throughput.
	MinThroughputRPS float64 `json:"min_throughput_rps,omitempty"`
	// MaxDropRatePct caps the admission drop rate in percent; a
	// pointer so an explicit 0 ("drop nothing") is distinct from
	// untargeted.
	MaxDropRatePct *float64 `json:"max_drop_rate_pct,omitempty"`
	// TenantTTFTP99US caps p99 time-to-first-token per tenant label
	// (e.g. {"chat-0": 20000}); needs the KV model and a multi-tenant
	// workload (tenants or a tenanted trace_file).
	TenantTTFTP99US map[string]float64 `json:"tenant_ttft_p99_us,omitempty"`
}

// slo maps the wire form to the planner's.
func (s PlanSLO) slo() planner.SLO {
	return planner.SLO{
		TTFTP99US:        s.TTFTP99US,
		LatencyP99US:     s.LatencyP99US,
		MinThroughputRPS: s.MinThroughputRPS,
		MaxDropRatePct:   s.MaxDropRatePct,
		TenantTTFTP99US:  s.TenantTTFTP99US,
	}
}

// PlanRequest asks for the minimal fleet meeting an SLO: the shared
// workload envelope (model, rate, batching policy, trace shape, KV
// base config) plus the targets and the search bounds. The planner
// decides replicas and routing — they are outputs, not inputs.
type PlanRequest struct {
	WorkloadSpec
	// SLO is the target envelope; at least one target must be set.
	SLO PlanSLO `json:"slo"`
	// MaxReplicas bounds the replica search; 0 uses
	// DefaultPlanMaxReplicas.
	MaxReplicas int `json:"max_replicas,omitempty"`
	// Routings is the routing axis, searched in order; empty uses the
	// planner's default ("rr", "least", "jsq", "po2").
	Routings []string `json:"routings,omitempty"`
	// Policies optionally widens the search across batching policies
	// ("fixed", "dynamic", "length"); empty searches only the
	// envelope's policy.
	Policies []string `json:"policies,omitempty"`
	// KVCapacitiesGB optionally searches per-replica KV capacities;
	// empty keeps the envelope's kv_capacity_gb (or no KV model).
	KVCapacitiesGB []float64 `json:"kv_capacities_gb,omitempty"`
	// QueueCap bounds each replica's admission queue; 0 is unbounded.
	QueueCap int `json:"queue_cap,omitempty"`
}

// normalize fills defaults in place; the normalized form doubles as
// the coalescing identity.
func (r PlanRequest) normalize() PlanRequest {
	r.WorkloadSpec = r.WorkloadSpec.normalize()
	if r.MaxReplicas == 0 {
		r.MaxReplicas = DefaultPlanMaxReplicas
	}
	if len(r.Routings) == 0 {
		r.Routings = planner.DefaultRoutings()
	}
	return r
}

// hasKV reports whether any candidate the search can produce carries
// the KV model.
func (r PlanRequest) hasKV() bool {
	return r.KVCapacityGB != nil || len(r.KVCapacitiesGB) > 0
}

// limits applies the daemon's size limits on top of the envelope's.
func (r PlanRequest) limits() error {
	if err := r.WorkloadSpec.limits(); err != nil {
		return err
	}
	switch {
	case r.MaxReplicas > maxFleetReplicas:
		return fmt.Errorf("max_replicas %d exceeds the %d-replica limit", r.MaxReplicas, maxFleetReplicas)
	case len(r.Routings) > maxPlanAxis:
		return fmt.Errorf("routings lists %d entries, more than the %d-entry limit", len(r.Routings), maxPlanAxis)
	case len(r.Policies) > maxPlanAxis:
		return fmt.Errorf("policies lists %d entries, more than the %d-entry limit", len(r.Policies), maxPlanAxis)
	case len(r.KVCapacitiesGB) > maxPlanAxis:
		return fmt.Errorf("kv_capacities_gb lists %d entries, more than the %d-entry limit", len(r.KVCapacitiesGB), maxPlanAxis)
	}
	combos := len(r.Routings) * max(1, len(r.Policies)) * max(1, len(r.KVCapacitiesGB))
	if combos > maxPlanCombos {
		return fmt.Errorf("routings × policies × kv_capacities_gb spans %d combinations, more than the %d-combination limit",
			combos, maxPlanCombos)
	}
	return nil
}

// check applies the plan's shape rules on top of the envelope's.
func (r PlanRequest) check() error {
	if err := r.WorkloadSpec.check(); err != nil {
		return err
	}
	if err := r.SLO.slo().Validate(); err != nil {
		return err
	}
	if (r.SLO.TTFTP99US > 0 || len(r.SLO.TenantTTFTP99US) > 0) && !r.hasKV() {
		return withCode(CodeKVCapacity,
			fmt.Errorf("ttft_p99_us target needs the KV model: set kv_capacity_gb or kv_capacities_gb"))
	}
	if r.TraceFile != "" && r.Rate <= 0 {
		return fmt.Errorf("plan needs rate even with trace_file: the planner searches the load axis by rescaling the trace")
	}
	switch {
	case r.MaxReplicas < 1:
		return fmt.Errorf("max_replicas must be positive, got %d", r.MaxReplicas)
	case r.QueueCap < 0:
		return fmt.Errorf("queue_cap must be non-negative, got %d", r.QueueCap)
	}
	for _, rt := range r.Routings {
		if _, err := serving.ParseRouting(rt, r.Seed); err != nil {
			return err
		}
		if rt == serving.RoutingKV && !r.hasKV() {
			return withCode(CodeKVCapacity, fmt.Errorf("kv routing needs the KV model: set kv_capacity_gb or kv_capacities_gb"))
		}
	}
	for _, p := range r.Policies {
		if _, err := serving.ParsePolicy(p, r.Batch, *r.TimeoutUS); err != nil {
			return err
		}
	}
	for _, gb := range r.KVCapacitiesGB {
		if gb <= 0 || math.IsNaN(gb) || math.IsInf(gb, 0) {
			return withCode(CodeKVCapacity, fmt.Errorf("kv_capacities_gb entries must be positive finite sizes, got %v", gb))
		}
	}
	return nil
}

// Spec resolves the request into the planner's input and hardware
// configuration: it fills the defaults, applies the shape rules, and
// builds the probe that prices each candidate fleet through src. It
// does not apply the daemon's size limits, which /v1/plan checks
// first, except the trace-file cap: the probe's trace is not returned,
// so Spec applies that one where it loads the file.
func (r PlanRequest) Spec(src trainer.ProfileSource) (planner.Spec, gpusim.Config, error) {
	r = r.normalize()
	if err := r.check(); err != nil {
		return planner.Spec{}, gpusim.Config{}, err
	}
	// Resolve the envelope exactly as /v1/serve and /v1/fleet do — the
	// probe re-derives traces per searched rate, but this validates the
	// model/config/policy/corpus combination up front.
	w, hw, policy, setupTrace, err := buildWorkloadSetup(r.WorkloadSpec)
	if err != nil {
		return planner.Spec{}, gpusim.Config{}, err
	}
	w.Batch = r.Batch
	probeCfg := experiments.PlanProbeConfig{
		Requests:        r.Requests,
		QueueCap:        r.QueueCap,
		KV:              r.kvConfig(),
		Policy:          policy,
		PolicyTimeoutUS: *r.TimeoutUS,
	}
	switch {
	case r.TraceFile != "":
		// The probe rescales the recorded trace per searched rate, so it
		// needs the unscaled original, not the rate-scaled setup trace.
		raw, err := loadTraceFile(r.TraceFile, 0)
		if err == nil {
			err = r.traceFileLimit(raw)
		}
		if err != nil {
			return planner.Spec{}, gpusim.Config{}, err
		}
		probeCfg.Trace = &raw
	case len(r.Tenants) > 0 || r.Pattern != "":
		// A generated workload searches the load axis the same way: the
		// setup trace carries the tenant mix, clumps and diurnal shape,
		// and the probe compresses or dilates it per probed rate —
		// substituting a memoryless Poisson process here would erase the
		// very tenants a tenant_ttft_p99_us SLO targets.
		probeCfg.Trace = &setupTrace
	}
	probe, err := experiments.PlanProbe(src, w, hw, probeCfg)
	if err != nil {
		return planner.Spec{}, gpusim.Config{}, err
	}
	return planner.Spec{
		SLO:            r.SLO.slo(),
		RatePerSec:     r.Rate,
		MaxReplicas:    r.MaxReplicas,
		Routings:       r.Routings,
		Policies:       r.Policies,
		KVCapacitiesGB: r.KVCapacitiesGB,
		Probe:          probe,
	}, hw, nil
}

// PlanResponse is the planning outcome over the wire.
type PlanResponse struct {
	// Model and Config echo the resolved request.
	Model  string `json:"model"`
	Config string `json:"config"`
	// RatePerSec is the offered rate the plan carries.
	RatePerSec float64 `json:"rate_rps"`
	// Plan is the minimal-cost candidate with its SLO evidence and
	// saturation analysis.
	Plan planner.Plan `json:"plan"`
}

func (r PlanRequest) resolve(eng *engine.Engine) (any, func() (any, error), error) {
	r = r.normalize()
	if err := r.limits(); err != nil {
		return nil, nil, err
	}
	spec, _, err := r.Spec(eng)
	if err != nil {
		return nil, nil, err
	}
	return r, func() (any, error) {
		plan, err := planner.Solve(spec)
		if err != nil {
			return nil, err
		}
		return PlanResponse{
			Model:      r.Model,
			Config:     r.Config,
			RatePerSec: r.Rate,
			Plan:       plan,
		}, nil
	}, nil
}
