package server

import (
	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/serving"
	"seqpoint/internal/trainer"
)

// ServeRequest describes one online-serving simulation over the wire:
// a Poisson arrival trace served under a batching policy on a single
// replica. It is exactly the shared workload envelope — Model and Rate
// are required; everything else defaults to a dynamic-batching serving
// setup on the paper's calibration configuration.
type ServeRequest struct {
	WorkloadSpec
}

// normalize fills defaults in place; the normalized form doubles as
// the coalescing identity.
func (r ServeRequest) normalize() ServeRequest {
	r.WorkloadSpec = r.WorkloadSpec.normalize()
	return r
}

// Spec resolves the request into the single-queue simulator's input
// and hardware configuration, pricing through src: it fills the
// defaults, applies the shape rules and builds the arrival trace. It
// does not apply the daemon's size limits, which /v1/serve checks
// first.
func (r ServeRequest) Spec(src trainer.ProfileSource) (serving.Spec, gpusim.Config, error) {
	r = r.normalize()
	if err := r.check(); err != nil {
		return serving.Spec{}, gpusim.Config{}, err
	}
	w, hw, policy, trace, err := buildWorkloadSetup(r.WorkloadSpec)
	if err != nil {
		return serving.Spec{}, gpusim.Config{}, err
	}
	return serving.Spec{Model: w.Model, Trace: trace, Policy: policy, Profiles: src, KV: r.kvConfig()}, hw, nil
}

// ServeResponse is the serving-simulation outcome over the wire.
type ServeResponse struct {
	// Model and Config echo the resolved request.
	Model  string `json:"model"`
	Config string `json:"config"`
	// Trace names the simulated arrival trace.
	Trace string `json:"trace"`
	// RatePerSec is the offered Poisson rate.
	RatePerSec float64 `json:"rate_rps"`
	// Summary is the serving roll-up: throughput, utilization and the
	// p50/p95/p99 latency tail.
	Summary serving.Summary `json:"summary"`
}

func (r ServeRequest) resolve(eng *engine.Engine) (any, func() (any, error), error) {
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
		res, err := serving.Simulate(spec, hw)
		if err != nil {
			return nil, err
		}
		return ServeResponse{
			Model:      r.Model,
			Config:     r.Config,
			Trace:      spec.Trace.Name,
			RatePerSec: r.Rate,
			Summary:    res.Summary(),
		}, nil
	}, nil
}
