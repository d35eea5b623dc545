package seqpoint

import (
	"seqpoint/internal/engine"
	"seqpoint/internal/server"
)

// HTTP simulation service (internal/server): the engine behind
// seqpointd. A Server exposes the engine over HTTP/JSON — POST
// /v1/simulate, /v1/sweep, /v1/seqpoint, /v1/serve, /v1/fleet and
// /v1/plan, GET /healthz, /v1/stats and /metrics (Prometheus text
// exposition) — with per-request timeouts, a bounded in-flight limiter
// and request coalescing on top of the engine's per-profile
// singleflight. For shutdown, StartDrain flips the server into drain
// mode (new simulations get a typed 503) and Drain additionally joins
// every detached computation, so a final cache snapshot taken
// afterwards holds everything in-flight work priced. The typed
// ServiceClient speaks the same wire format.
type (
	// Server serves an engine over HTTP; it is an http.Handler.
	Server = server.Server
	// ServerOptions configures a Server; the zero value is usable.
	ServerOptions = server.Options
	// ServiceClient is the typed HTTP client for a seqpointd server.
	ServiceClient = server.Client
	// SimulateRequest describes one training-run simulation over the
	// wire.
	SimulateRequest = server.SimulateRequest
	// SweepRequest is a (workload × config) grid request.
	SweepRequest = server.SweepRequest
	// SweepResponse carries per-task sweep results in task order.
	SweepResponse = server.SweepResponse
	// SeqPointRequest asks for representative-iteration selection.
	SeqPointRequest = server.SeqPointRequest
	// SeqPointResponse is the selection outcome over the wire.
	SeqPointResponse = server.SeqPointResponse
	// WorkloadSpec is the request envelope shared by the serving-family
	// endpoints: model, rate, hardware config, batching policy, trace
	// shape and optional KV model. ServeRequest, FleetRequest and
	// PlanRequest embed it, so their JSON wire shapes stay flat.
	WorkloadSpec = server.WorkloadSpec
	// ServeRequest describes one online-serving simulation over the
	// wire (POST /v1/serve).
	ServeRequest = server.ServeRequest
	// ServeResponse is the serving outcome over the wire: the arrival
	// setup plus the throughput/latency-percentile roll-up.
	ServeResponse = server.ServeResponse
	// FleetRequest describes one multi-replica serving simulation over
	// the wire (POST /v1/fleet).
	FleetRequest = server.FleetRequest
	// FleetResponse is the fleet outcome over the wire: routing,
	// admission drops, latency tail and autoscaler activity.
	FleetResponse = server.FleetResponse
	// FleetAutoscaleSpec configures the fleet autoscaler over the wire.
	FleetAutoscaleSpec = server.AutoscaleSpec
	// PlanRequest asks the capacity planner for the minimal fleet
	// meeting an SLO (POST /v1/plan).
	PlanRequest = server.PlanRequest
	// PlanResponse is the planning outcome over the wire.
	PlanResponse = server.PlanResponse
	// PlanSLOSpec is the wire form of the planner's target envelope.
	PlanSLOSpec = server.PlanSLO
	// ServiceAPIError is a non-2xx service response surfaced by the
	// typed client: HTTP status plus the server's error body.
	ServiceAPIError = server.APIError
	// ServiceStats is the service- and engine-level counter snapshot
	// served by GET /v1/stats.
	ServiceStats = server.StatsResponse
)

var (
	// NewServer builds an HTTP simulation server over an engine.
	NewServer = server.New
	// NewServiceClient returns a typed client for the server at the
	// given base URL.
	NewServiceClient = server.NewClient
)

// CacheSnapshotVersion is the on-disk profile-cache format version;
// snapshots written at any other version are invalidated on load. See
// Engine.SaveSnapshot and Engine.LoadSnapshot for the persistence API
// that lets a restarted service answer warm.
const CacheSnapshotVersion = engine.SnapshotVersion
