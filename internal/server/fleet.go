package server

import (
	"fmt"

	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/serving"
	"seqpoint/internal/trainer"
)

// Defaults for FleetRequest fields left zero, applied by normalize.
const (
	// DefaultFleetReplicas serves on two replicas: the smallest fleet
	// where routing exists at all.
	DefaultFleetReplicas = 2
	// DefaultFleetRouting is round-robin: the oblivious baseline the
	// queue-aware policies are measured against.
	DefaultFleetRouting = serving.RoutingRoundRobin
	// maxFleetReplicas bounds one request's fleet size: simulation work
	// scales with replicas × requests, and both are already capped.
	maxFleetReplicas = 64
)

// Autoscale defaults, applied when an autoscale block is present but
// leaves thresholds zero.
const (
	// DefaultAutoscaleDownFraction sets the scale-down threshold as a
	// fraction of the scale-up threshold.
	DefaultAutoscaleDownFraction = 0.25
	// DefaultAutoscaleCooldownUS matches the default batching window's
	// order of magnitude.
	DefaultAutoscaleCooldownUS = 50_000
)

// AutoscaleSpec configures the fleet's reactive autoscaler over the
// wire. Min and Max bound the live replica count; thresholds are mean
// queued requests per live replica.
type AutoscaleSpec struct {
	// Min and Max bound the live replica count; Min defaults to 1, Max
	// to the request's replica count.
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// UpDepth is the scale-up threshold; zero defaults to one full
	// batch per replica.
	UpDepth float64 `json:"up_depth,omitempty"`
	// DownDepth is the scale-down threshold. A pointer, not a float,
	// so an explicit 0 (never scale down) survives normalization; nil
	// defaults to a quarter of UpDepth.
	DownDepth *float64 `json:"down_depth,omitempty"`
	// CooldownUS is the minimum simulated time between scale actions.
	// A pointer so an explicit 0 (act on every evaluation) survives
	// normalization; nil defaults to 50ms.
	CooldownUS *float64 `json:"cooldown_us,omitempty"`
}

// DisaggSpec splits the fleet into prefill and decode pools over the
// wire; requires the KV model (kv_capacity_gb).
type DisaggSpec struct {
	// Prefill and Decode size the two pools; their sum must equal the
	// request's replica count.
	Prefill int `json:"prefill"`
	Decode  int `json:"decode"`
}

// FleetRequest describes one multi-replica serving simulation over the
// wire: the shared workload envelope (model, rate, batching policy,
// trace shape) plus the fleet dimensions — replica count, routing
// policy, admission bound, and optional autoscaling.
type FleetRequest struct {
	WorkloadSpec
	// Replicas is the fleet size (the initial live count when
	// autoscaling).
	Replicas int `json:"replicas,omitempty"`
	// Routing selects the router: "rr", "least", "jsq", "po2" or "kv"
	// (least cache pressure; needs kv_capacity_gb).
	Routing string `json:"routing,omitempty"`
	// QueueCap bounds each replica's admission queue; 0 is unbounded.
	QueueCap int `json:"queue_cap,omitempty"`
	// Autoscale enables the reactive autoscaler.
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	// Parallelism must be non-negative and is otherwise ignored.
	//
	// Deprecated: ignored; fleets advance serially. Still accepted so
	// clients that send it are not refused by strict decoding.
	Parallelism int `json:"parallelism,omitempty"`
	// Disagg splits the fleet into prefill and decode pools joined by a
	// handoff queue. Requires the KV model; incompatible with
	// autoscaling.
	Disagg *DisaggSpec `json:"disagg,omitempty"`
}

// disaggConfig maps the wire spec to the simulator's configuration.
func (r FleetRequest) disaggConfig() *serving.DisaggConfig {
	if r.Disagg == nil {
		return nil
	}
	return &serving.DisaggConfig{
		PrefillReplicas: r.Disagg.Prefill,
		DecodeReplicas:  r.Disagg.Decode,
	}
}

// normalize fills defaults in place; the normalized form doubles as
// the coalescing identity.
func (r FleetRequest) normalize() FleetRequest {
	r.WorkloadSpec = r.WorkloadSpec.normalize()
	if r.Replicas == 0 {
		r.Replicas = DefaultFleetReplicas
	}
	if r.Routing == "" {
		r.Routing = DefaultFleetRouting
	}
	if r.Autoscale != nil {
		a := *r.Autoscale
		if a.Min == 0 {
			a.Min = 1
		}
		if a.Max == 0 {
			a.Max = r.Replicas
		}
		if a.UpDepth == 0 {
			a.UpDepth = float64(r.Batch)
		}
		if a.DownDepth == nil {
			v := a.UpDepth * DefaultAutoscaleDownFraction
			a.DownDepth = &v
		}
		if a.CooldownUS == nil {
			v := float64(DefaultAutoscaleCooldownUS)
			a.CooldownUS = &v
		}
		r.Autoscale = &a
	}
	return r
}

// autoscaleConfig maps the wire spec to the simulator's configuration.
func (r FleetRequest) autoscaleConfig() *serving.AutoscaleConfig {
	if r.Autoscale == nil {
		return nil
	}
	return &serving.AutoscaleConfig{
		Min:        r.Autoscale.Min,
		Max:        r.Autoscale.Max,
		UpDepth:    r.Autoscale.UpDepth,
		DownDepth:  *r.Autoscale.DownDepth,
		CooldownUS: *r.Autoscale.CooldownUS,
	}
}

// limits applies the daemon's size limits on top of the envelope's.
func (r FleetRequest) limits() error {
	if err := r.WorkloadSpec.limits(); err != nil {
		return err
	}
	if r.Replicas > maxFleetReplicas {
		return fmt.Errorf("replicas %d exceeds the %d-replica limit", r.Replicas, maxFleetReplicas)
	}
	if r.Autoscale != nil && r.Autoscale.Max > maxFleetReplicas {
		return fmt.Errorf("autoscale max %d exceeds the %d-replica limit", r.Autoscale.Max, maxFleetReplicas)
	}
	return nil
}

// check applies the fleet's shape rules on top of the envelope's.
func (r FleetRequest) check() error {
	if err := r.WorkloadSpec.check(); err != nil {
		return err
	}
	switch {
	case r.Replicas < 1:
		return fmt.Errorf("replicas must be positive, got %d", r.Replicas)
	case r.QueueCap < 0:
		return fmt.Errorf("queue_cap must be non-negative, got %d", r.QueueCap)
	case r.Parallelism < 0:
		return fmt.Errorf("parallelism must be non-negative, got %d", r.Parallelism)
	}
	if r.Disagg != nil {
		switch {
		case r.KVCapacityGB == nil:
			return withCode(CodeKVCapacity, fmt.Errorf("disagg needs the KV model: set kv_capacity_gb"))
		case r.Autoscale != nil:
			return fmt.Errorf("disagg and autoscale are incompatible: pool sizes are fixed")
		case r.Disagg.Prefill+r.Disagg.Decode != r.Replicas:
			return fmt.Errorf("disagg pools must sum to replicas: %d + %d != %d",
				r.Disagg.Prefill, r.Disagg.Decode, r.Replicas)
		}
		if err := r.disaggConfig().Validate(); err != nil {
			return err
		}
	}
	if r.Routing == serving.RoutingKV && r.KVCapacityGB == nil {
		return withCode(CodeKVCapacity, fmt.Errorf("kv routing needs the KV model: set kv_capacity_gb"))
	}
	if a := r.autoscaleConfig(); a != nil {
		if err := a.Validate(); err != nil {
			return err
		}
		if r.Replicas < a.Min || r.Replicas > a.Max {
			return fmt.Errorf("replicas %d outside autoscale bounds [%d, %d]", r.Replicas, a.Min, a.Max)
		}
	}
	return nil
}

// Spec resolves the request into the fleet simulator's input and
// hardware configuration, pricing through src: it fills the defaults,
// applies the shape rules, builds the arrival trace and the router. It
// does not apply the daemon's size limits, which /v1/fleet checks
// first.
func (r FleetRequest) Spec(src trainer.ProfileSource) (serving.FleetSpec, gpusim.Config, error) {
	r = r.normalize()
	if err := r.check(); err != nil {
		return serving.FleetSpec{}, gpusim.Config{}, err
	}
	w, hw, policy, trace, err := buildWorkloadSetup(r.WorkloadSpec)
	if err != nil {
		return serving.FleetSpec{}, gpusim.Config{}, err
	}
	router, err := serving.ParseRouting(r.Routing, r.Seed)
	if err != nil {
		return serving.FleetSpec{}, gpusim.Config{}, err
	}
	return serving.FleetSpec{
		Model:     w.Model,
		Trace:     trace,
		Policy:    policy,
		Router:    router,
		Replicas:  r.Replicas,
		QueueCap:  r.QueueCap,
		Autoscale: r.autoscaleConfig(),
		Profiles:  src,
		KV:        r.kvConfig(),
		Disagg:    r.disaggConfig(),
	}, hw, nil
}

// FleetResponse is the fleet-simulation outcome over the wire.
type FleetResponse struct {
	// Model and Config echo the resolved request.
	Model  string `json:"model"`
	Config string `json:"config"`
	// Trace names the simulated arrival trace; Routing the resolved
	// routing policy.
	Trace   string `json:"trace"`
	Routing string `json:"routing"`
	// RatePerSec is the offered Poisson rate.
	RatePerSec float64 `json:"rate_rps"`
	// Summary is the fleet roll-up: throughput, drop rate, the latency
	// tail, per-replica shares, and autoscaler activity.
	Summary serving.FleetSummary `json:"summary"`
}

func (r FleetRequest) resolve(eng *engine.Engine) (any, func() (any, error), error) {
	r = r.normalize()
	if err := r.limits(); err != nil {
		return nil, nil, err
	}
	spec, hw, err := r.Spec(eng)
	if err == nil {
		err = r.traceFileLimit(spec.Trace)
	}
	if err != nil {
		return nil, nil, err
	}
	return r, func() (any, error) {
		res, err := serving.SimulateFleet(spec, hw)
		if err != nil {
			return nil, err
		}
		return FleetResponse{
			Model:      r.Model,
			Config:     r.Config,
			Trace:      spec.Trace.Name,
			Routing:    spec.Router.Name(),
			RatePerSec: r.Rate,
			Summary:    res.Summary(),
		}, nil
	}, nil
}
