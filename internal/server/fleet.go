package server

import (
	"fmt"
	"net/http"

	"seqpoint/internal/serving"
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

// validateFleet applies the server's request-shape limits on top of
// the shared workload-envelope checks.
func (s *Server) validateFleet(r FleetRequest) error {
	if err := s.validateWorkload(r.WorkloadSpec); err != nil {
		return err
	}
	switch {
	case r.Replicas < 1:
		return fmt.Errorf("replicas must be positive, got %d", r.Replicas)
	case r.Replicas > maxFleetReplicas:
		return fmt.Errorf("replicas %d exceeds the %d-replica limit", r.Replicas, maxFleetReplicas)
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
		if a.Max > maxFleetReplicas {
			return fmt.Errorf("autoscale max %d exceeds the %d-replica limit", a.Max, maxFleetReplicas)
		}
		if err := a.Validate(); err != nil {
			return err
		}
		if r.Replicas < a.Min || r.Replicas > a.Max {
			return fmt.Errorf("replicas %d outside autoscale bounds [%d, %d]", r.Replicas, a.Min, a.Max)
		}
	}
	return nil
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

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var req FleetRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	req = req.normalize()
	if err := s.validateFleet(req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	workload, hw, policy, trace, err := buildWorkloadSetup(req.WorkloadSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	router, err := serving.ParseRouting(req.Routing, req.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	status, body := s.execute(r.Context(), coalesceKey("fleet", req), func() (int, []byte) {
		res, err := serving.SimulateFleet(serving.FleetSpec{
			Model:     workload.Model,
			Trace:     trace,
			Policy:    policy,
			Router:    router,
			Replicas:  req.Replicas,
			QueueCap:  req.QueueCap,
			Autoscale: req.autoscaleConfig(),
			Profiles:  s.eng,
			KV:        req.kvConfig(),
			Disagg:    req.disaggConfig(),
		}, hw)
		if err != nil {
			return http.StatusInternalServerError, errorBody(http.StatusInternalServerError, err)
		}
		return http.StatusOK, marshalBody(FleetResponse{
			Model:      req.Model,
			Config:     req.Config,
			Trace:      trace.Name,
			Routing:    router.Name(),
			RatePerSec: req.Rate,
			Summary:    res.Summary(),
		})
	})
	writeRaw(w, status, body)
}
