package seqpoint

import (
	"seqpoint/internal/serving"
	"seqpoint/internal/stats"
	"seqpoint/internal/workload"
)

// Online serving simulation (internal/serving): a deterministic
// discrete-event simulator of load-dependent inference serving on top
// of the same analytical cost model. Requests arrive over time
// (Poisson, burst, or a replayed trace), a batching policy groups
// them, a single-queue server — the fleet simulator below with one
// replica — prices each batch through the engine's profile cache, and
// per-request metrics roll up to throughput, utilization and
// p50/p95/p99 latency. This is the regime where the
// paper's sequence-length observation bites hardest: with pad-to-max
// batching, the longest request in a batch sets the whole batch's
// cost, so the arrival stream's SL skew shapes the latency tail.
type (
	// ServingRequest is one inference request of an arrival trace.
	ServingRequest = workload.Request
	// ServingTrace is an arrival-ordered request sequence.
	ServingTrace = workload.Trace
	// ServingSpec describes one online-serving simulation;
	// SimulateServing validates it as a 1-replica FleetSpec.
	ServingSpec = serving.Spec
	// ServingResult is a serving simulation's full outcome: the
	// 1-replica fleet run, whose Summary is the single-queue digest.
	ServingResult = serving.Result
	// ServingSummary is the deterministic serving roll-up (the unit of
	// the serving golden tests).
	ServingSummary = serving.Summary
	// ServingMetric is one request's realized timeline.
	ServingMetric = serving.RequestMetric
	// BatchPolicy decides when the server launches a batch and which
	// queued requests it groups.
	BatchPolicy = serving.Policy
	// BatchDecision is a policy's verdict at one decision instant.
	BatchDecision = serving.Decision
)

// Fleet simulation (internal/serving): the multi-replica
// generalization of the single-queue serving simulator. N replicas,
// each one GPU, sit behind a routing policy (round-robin,
// least-outstanding, join-shortest-queue, power-of-two-choices, KV
// pressure), bounded per-replica queues reject overload as typed
// drops, and an optional reactive autoscaler grows and shrinks the
// live fleet on queue depth, with replica-seconds as the cost proxy.
// SimulateServing is this simulator with one round-robin replica and
// an unbounded queue: its ServingResult is that run's FleetResult
// under the single-queue type, and its ServingSummary projects the
// fleet digest onto the single-queue fields.
type (
	// FleetSpec describes one multi-replica serving simulation. Its
	// Parallelism field is deprecated and ignored: fleets advance
	// serially.
	FleetSpec = serving.FleetSpec
	// FleetResult is a fleet simulation's full outcome.
	FleetResult = serving.FleetResult
	// FleetSummary is the deterministic fleet roll-up (the unit of the
	// fleet golden tests).
	FleetSummary = serving.FleetSummary
	// FleetReplicaStats is one replica's share of a fleet run.
	FleetReplicaStats = serving.ReplicaStats
	// FleetRejection records one request refused by admission control.
	FleetRejection = serving.Rejection
	// FleetAutoscale configures the reactive queue-depth autoscaler.
	FleetAutoscale = serving.AutoscaleConfig
	// FleetRouter assigns each arriving request to a replica.
	FleetRouter = serving.Router
	// FleetReplicaView is the router-visible state of one replica.
	FleetReplicaView = serving.ReplicaView
)

var (
	// SimulateFleet runs a multi-replica serving simulation.
	SimulateFleet = serving.SimulateFleet
	// NewRoundRobin, NewLeastOutstanding, NewJSQ, NewPowerOfTwo and
	// NewKVRouter build the five bundled routing policies.
	NewRoundRobin       = serving.NewRoundRobin
	NewLeastOutstanding = serving.NewLeastOutstanding
	NewJSQ              = serving.NewJSQ
	NewPowerOfTwo       = serving.NewPowerOfTwo
	NewKVRouter         = serving.NewKVRouter
	// ParseRouting maps a CLI/HTTP routing spelling ("rr", "least",
	// "jsq", "po2", "kv") to a router.
	ParseRouting = serving.ParseRouting
)

// Memory-aware serving (internal/serving): the KV-cache capacity model.
// With KVCacheConfig set on a spec, requests are a prefill over their
// input followed by decode steps, the replica holds cache bytes per
// in-flight token against a capacity ceiling, over-capacity picks
// preempt (evict-and-recompute or block into waves), and summaries gain
// time-to-first-token percentiles alongside end-to-end latency. A fleet
// can additionally split into prefill/decode pools joined by a handoff
// queue (FleetDisagg) and route on cache pressure (NewKVRouter).
type (
	// KVCacheConfig enables the per-replica KV-cache capacity model.
	KVCacheConfig = serving.KVConfig
	// KVCacheStats is the cache model's roll-up of one run.
	KVCacheStats = serving.KVRunStats
	// FleetDisagg splits a fleet into prefill and decode pools.
	FleetDisagg = serving.DisaggConfig
)

// KV-model spellings: preemption policies and the cache-pressure router.
const (
	// KVPreemptEvict launches the maximal fitting prefix of a batch and
	// returns the displaced requests to the queue front.
	KVPreemptEvict = serving.PreemptEvict
	// KVPreemptBlock serves an over-capacity batch as consecutive
	// capacity-bounded waves within one busy period.
	KVPreemptBlock = serving.PreemptBlock
	// RoutingKV is the ParseRouting spelling of the least-cache-pressure
	// router.
	RoutingKV = serving.RoutingKV
)

// Workload generation and trace replay (internal/workload): a
// production-shaped multi-tenant arrival generator — diurnal rate
// modulation, weighted cohort mixes, Zipf-skewed tenant popularity,
// bulk-submission clumps — plus a versioned JSON-lines trace file
// format, so the same recorded arrivals replay byte-identically
// through serving, fleet and planner runs. Tenanted traces roll up per-tenant latency tails (TenantStats)
// and can be batched tenant-aware (NewWFQBatch) so a clumping bulk
// tenant cannot starve sparse interactive ones.
type (
	// WorkloadGenSpec describes one generated multi-tenant workload.
	WorkloadGenSpec = workload.GenSpec
	// WorkloadCohort is one tenant class of a generated workload.
	WorkloadCohort = workload.Cohort
	// WorkloadPattern shapes the generated arrival rate over time.
	WorkloadPattern = workload.Pattern
	// TenantStats is one tenant's slice of a serving or fleet roll-up.
	TenantStats = serving.TenantStats
)

// Arrival-pattern spellings for WorkloadPattern.Kind.
const (
	// PatternUniform is a homogeneous Poisson process.
	PatternUniform = workload.PatternUniform
	// PatternDiurnal modulates the arrival rate sinusoidally.
	PatternDiurnal = workload.PatternDiurnal
	// TraceFileVersion is the trace file format version WriteTrace
	// emits and ReadTrace accepts.
	TraceFileVersion = workload.TraceVersion
)

var (
	// GenerateTrace produces a multi-tenant trace from a
	// WorkloadGenSpec, deterministic at any parallelism.
	GenerateTrace = workload.Generate
	// WriteTrace and ReadTrace stream the versioned JSON-lines trace
	// format; SaveTrace and LoadTrace are their file-path forms
	// (SaveTrace writes atomically via an fsynced temp file and rename).
	WriteTrace = workload.WriteTrace
	ReadTrace  = workload.ReadTrace
	SaveTrace  = workload.SaveTrace
	LoadTrace  = workload.LoadTrace
	// NewWFQBatch builds the tenant-aware weighted-fair batching
	// policy: dynamic-style gating with a per-tenant round-robin pick.
	NewWFQBatch = serving.NewWFQBatch
	// ErrBadTrace is the typed cause every trace-validation failure
	// wraps; match with errors.Is.
	ErrBadTrace = workload.ErrBadTrace
)

var (
	// SimulateServing runs an online-serving simulation.
	SimulateServing = serving.Simulate
	// PoissonTrace generates a seeded Poisson arrival trace with
	// request lengths drawn from a corpus.
	PoissonTrace = workload.PoissonTrace
	// BurstTrace generates a fully backlogged trace (every request at
	// time zero) — the capacity probe.
	BurstTrace = workload.BurstTrace
	// ReplayTrace builds a trace from explicit arrival offsets and
	// sequence lengths.
	ReplayTrace = workload.ReplayTrace
	// NewFixedBatch, NewDynamicBatch and NewLengthAware build three of
	// the four bundled batching policies (NewWFQBatch is the fourth):
	// fixed-size FIFO, timeout-bounded dynamic batching, and greedy
	// length-aware grouping. All four share one gate and differ in
	// which queued requests they pick.
	NewFixedBatch   = serving.NewFixedBatch
	NewDynamicBatch = serving.NewDynamicBatch
	NewLengthAware  = serving.NewLengthAware
	// ParseBatchPolicy maps a CLI/HTTP policy spelling ("fixed",
	// "dynamic", "length") to a policy.
	ParseBatchPolicy = serving.ParsePolicy
	// Percentile is the nearest-rank percentile (p in [0,100]) the
	// serving roll-ups report latency tails with; Percentiles is the
	// bulk form that sorts once for several p values.
	Percentile  = stats.Percentile
	Percentiles = stats.Percentiles
)
