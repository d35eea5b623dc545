package server

import (
	"fmt"

	"seqpoint/internal/dataset"
	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/trainer"
)

// Default request parameters, applied by normalize.
const (
	// DefaultEpochs keeps what-if queries cheap: all per-epoch
	// quantities are epoch-invariant under the bundled schedules, so one
	// epoch answers most projection questions.
	DefaultEpochs = 1
	// DefaultConfig is the paper's calibration configuration.
	DefaultConfig = "#1"
)

// SimulateRequest describes one training-run simulation over the wire.
// Only Model is required; everything else defaults to the paper's
// canonical setup (batch 64, one epoch, seed 1, config #1, single GPU).
type SimulateRequest struct {
	// Model selects the workload: "ds2", "gnmt", "transformer" or
	// "seq2seq". The workload fixes the corpus and batching schedule.
	Model string `json:"model"`
	// Batch is the global minibatch size.
	Batch int `json:"batch,omitempty"`
	// Epochs is the number of training epochs to simulate.
	Epochs int `json:"epochs,omitempty"`
	// Seed drives corpus synthesis and shuffling.
	Seed int64 `json:"seed,omitempty"`
	// Config names the hardware configuration, one of Table II's
	// "#1".."#5".
	Config string `json:"config,omitempty"`
	// GPUs sizes the data-parallel cluster; <= 1 simulates a single GPU.
	GPUs int `json:"gpus,omitempty"`
	// Topology is "ring" or "mesh"; defaults to ring on multi-GPU runs.
	Topology string `json:"topology,omitempty"`
	// LinkGBps overrides the per-link interconnect bandwidth.
	LinkGBps float64 `json:"link_gbps,omitempty"`
	// LinkLatencyUS overrides the per-hop message latency.
	LinkLatencyUS float64 `json:"link_latency_us,omitempty"`
	// Overlap overrides the compute/communication overlap fraction
	// ([0,1]); nil keeps the cluster default.
	Overlap *float64 `json:"overlap,omitempty"`
	// SeqLens, when set, replaces the workload's corpus with a synthetic
	// corpus of exactly these sequence lengths — hermetic and fast.
	SeqLens []int `json:"seqlens,omitempty"`
	// Subsample, when positive, cuts the training corpus to this many
	// samples before planning (ignored when SeqLens is set).
	Subsample int `json:"subsample,omitempty"`
	// Eval includes the per-epoch evaluation pass.
	Eval bool `json:"eval,omitempty"`
}

// normalize fills defaults in place. The normalized form doubles as the
// coalescing identity: two requests that normalize to the same value
// are the same query.
func (r SimulateRequest) normalize() SimulateRequest {
	if r.Batch == 0 {
		r.Batch = experiments.DefaultBatch
	}
	if r.Epochs == 0 {
		r.Epochs = DefaultEpochs
	}
	if r.Seed == 0 {
		r.Seed = experiments.DefaultSeed
	}
	if r.Config == "" {
		r.Config = DefaultConfig
	}
	if r.GPUs <= 1 {
		r.GPUs = 1
	}
	return r
}

// customSimVocab is the vocabulary of the synthetic corpus a training
// request's seqlens stand for.
const customSimVocab = 1000

// servedModel resolves a wire model name to its registry entry. The
// wire model set (no CNN, on any endpoint) is experiments'
// LookupServed; every failure maps to the wire-facing model list (the
// registry's own error mentions cnn, which this API never accepts —
// /v1/serve adds its own explanation for cnn specifically).
func servedModel(model string) (experiments.ServedModel, error) {
	s, err := experiments.LookupServed(model)
	if err != nil {
		return s, fmt.Errorf("unknown model %q (want ds2, gnmt, transformer or seq2seq)", model)
	}
	return s, nil
}

// buildSpec resolves a normalized request into a runnable trainer.Spec
// and hardware configuration. All resolution failures are client errors.
// With seqlens set, the model's named corpora are never generated.
func buildSpec(r SimulateRequest) (trainer.Spec, gpusim.Config, error) {
	var zero trainer.Spec
	sm, err := servedModel(r.Model)
	if err != nil {
		return zero, gpusim.Config{}, err
	}

	hw, err := configByName(r.Config)
	if err != nil {
		return zero, gpusim.Config{}, err
	}

	cl, err := buildCluster(r)
	if err != nil {
		return zero, gpusim.Config{}, err
	}

	var w experiments.Workload
	if len(r.SeqLens) > 0 {
		if len(r.SeqLens) < r.Batch {
			return zero, gpusim.Config{}, fmt.Errorf("seqlens provides %d samples, fewer than one batch (%d)",
				len(r.SeqLens), r.Batch)
		}
		syn, err := sm.CustomCorpus(r.SeqLens, customSimVocab)
		if err != nil {
			return zero, gpusim.Config{}, fmt.Errorf("invalid seqlens: %w", err)
		}
		w = sm.WorkloadWith(syn, syn, r.Seed)
	} else {
		w = sm.Workload(r.Seed)
		if r.Subsample > 0 {
			w.Train = dataset.Subsample(w.Train, r.Subsample, r.Seed)
		}
	}
	if !r.Eval {
		w.Eval = nil
	}

	return trainer.Spec{
		Model:    w.Model,
		Train:    w.Train,
		Eval:     w.Eval,
		Batch:    r.Batch,
		Epochs:   r.Epochs,
		Schedule: w.Schedule,
		Seed:     r.Seed,
		Cluster:  cl,
	}, hw, nil
}

// configByName resolves a Table II configuration name.
func configByName(name string) (gpusim.Config, error) {
	for _, c := range gpusim.TableII() {
		if c.Name == name {
			return c, nil
		}
	}
	return gpusim.Config{}, fmt.Errorf("unknown config %q (want one of Table II: #1..#5)", name)
}

// buildCluster assembles the cluster configuration from request fields,
// starting from the ring default and applying explicit overrides.
func buildCluster(r SimulateRequest) (gpusim.ClusterConfig, error) {
	cl := gpusim.DefaultCluster(r.GPUs)
	if r.Topology != "" {
		topo, err := gpusim.ParseTopology(r.Topology)
		if err != nil {
			return cl, err
		}
		if cl.GPUs > 1 {
			cl.Topology = topo
		}
	}
	if r.LinkGBps != 0 {
		cl.LinkGBps = r.LinkGBps
	}
	if r.LinkLatencyUS != 0 {
		cl.LinkLatencyUS = r.LinkLatencyUS
	}
	if r.Overlap != nil {
		cl.Overlap = *r.Overlap
	}
	if err := cl.Validate(); err != nil {
		return cl, err
	}
	return cl, nil
}

// taskName labels one sweep cell in results.
func taskName(r SimulateRequest) string {
	return fmt.Sprintf("%s on %s gpus=%d batch=%d epochs=%d", r.Model, r.Config, r.GPUs, r.Batch, r.Epochs)
}

// SweepRequest is a (workload × config) grid: every task simulates
// independently, sharing the server engine's profile cache.
type SweepRequest struct {
	// Tasks are the grid cells.
	Tasks []SimulateRequest `json:"tasks"`
	// Parallelism bounds concurrent simulations; <= 0 uses the engine
	// default.
	Parallelism int `json:"parallelism,omitempty"`
}

// SweepTaskResult is one sweep cell's outcome.
type SweepTaskResult struct {
	// Name labels the cell ("gnmt on #3 gpus=4 batch=64 epochs=1").
	Name string `json:"name"`
	// Error is the cell's failure; empty on success.
	Error string `json:"error,omitempty"`
	// Summary is the run digest; nil when Error is set.
	Summary *trainer.RunSummary `json:"summary,omitempty"`
}

// SweepResponse carries the sweep results in task order.
type SweepResponse struct {
	Results []SweepTaskResult `json:"results"`
}

// SeqPointRequest asks for representative-iteration selection: simulate
// one run, log epoch 0, and select SeqPoints (or a baseline's pick).
type SeqPointRequest struct {
	SimulateRequest
	// ErrorThresholdPct is the paper's e (percent); 0 uses the default.
	ErrorThresholdPct float64 `json:"e,omitempty"`
	// MaxUniqueNoBinning is the paper's n; 0 uses the default.
	MaxUniqueNoBinning int `json:"n,omitempty"`
	// InitialBins is the starting k; 0 uses the default.
	InitialBins int `json:"k,omitempty"`
	// Method selects the strategy: "seqpoint" (default), "frequent",
	// "median" or "worst".
	Method string `json:"method,omitempty"`
}

// SeqPointResult is one selected representative over the wire.
type SeqPointResult struct {
	// SeqLen is the representative sequence length to profile.
	SeqLen int `json:"seqlen"`
	// Weight is the number of epoch iterations it stands for.
	Weight float64 `json:"weight"`
	// IterTimeUS is its single-iteration runtime on the requested
	// configuration.
	IterTimeUS float64 `json:"iter_time_us"`
}

// SeqPointResponse is the selection outcome.
type SeqPointResponse struct {
	// Model and Config echo the resolved request.
	Model  string `json:"model"`
	Config string `json:"config"`
	// Method is the strategy that produced the points.
	Method string `json:"method"`
	// UniqueSLs is the number of unique sequence lengths in the logged
	// epoch.
	UniqueSLs int `json:"unique_sls"`
	// Bins is the final bin count k (0 when binning was skipped).
	Bins int `json:"bins"`
	// Binned reports whether binning was needed.
	Binned bool `json:"binned"`
	// ErrorPct is the self-projection error of the selection.
	ErrorPct float64 `json:"error_pct"`
	// Points are the selected representatives, ordered by SL.
	Points []SeqPointResult `json:"points"`
}

// StatsResponse is the service- and engine-level counter snapshot.
type StatsResponse struct {
	// Engine is the profile-cache counter snapshot: hits are requests
	// served from a completed entry, misses are profiles actually
	// computed, dedups are requests that waited on an in-flight
	// computation.
	Engine engine.Stats `json:"engine"`
	// Requests counts simulation requests accepted for processing.
	Requests int64 `json:"requests"`
	// Completed counts accepted simulations that finished computing
	// (successfully, with an error, or by contained panic). At
	// quiescence Requests == Completed and Inflight == 0.
	Completed int64 `json:"completed"`
	// Coalesced counts requests that shared another identical in-flight
	// request's response instead of computing.
	Coalesced int64 `json:"coalesced"`
	// Rejected counts requests turned away without computing: by the
	// in-flight limiter (429) or by drain mode (503).
	Rejected int64 `json:"rejected"`
	// Inflight is the number of simulations currently executing.
	Inflight int64 `json:"inflight"`
	// MaxInflight is the limiter bound.
	MaxInflight int `json:"max_inflight"`
	// Draining reports whether the server has begun graceful shutdown.
	Draining bool `json:"draining"`
}

// Machine-readable error codes carried by every non-2xx response's
// "code" field (and surfaced on the client as APIError.Code), so
// programs branch on a stable identifier instead of parsing prose.
const (
	// CodeBadRequest marks a malformed or out-of-bounds request (400).
	CodeBadRequest = "bad_request"
	// CodeKVCapacity marks a KV-cache-model misconfiguration: invalid
	// kv_capacity_gb, a KV-dependent knob without the model, or a
	// /v1/serve request whose own cache exceeds the capacity (400).
	CodeKVCapacity = "kv_capacity"
	// CodeBadTrace marks a malformed arrival trace: a trace_file that is
	// corrupt, truncated, wrong-version, or whose arrivals are negative
	// or non-monotone (400).
	CodeBadTrace = "bad_trace"
	// CodeMethodNotAllowed marks a wrong HTTP method (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeTooLarge marks a request body over the server's byte limit
	// (413).
	CodeTooLarge = "too_large"
	// CodeInfeasible marks a well-formed plan request whose SLO no
	// candidate within bounds can meet (422).
	CodeInfeasible = "infeasible"
	// CodeOverloaded marks rejection by the in-flight limiter (429).
	CodeOverloaded = "overloaded"
	// CodeInternal marks a simulation or encoding failure (500).
	CodeInternal = "internal"
	// CodeCancelled marks a request abandoned because the client went
	// away (503).
	CodeCancelled = "cancelled"
	// CodeDraining marks a simulation rejected because the server is
	// draining for shutdown (503).
	CodeDraining = "draining"
	// CodeTimeout marks a request that outlived the server's
	// per-request deadline (504).
	CodeTimeout = "timeout"
)

// errorResponse is the uniform error body:
// {"error": "...", "code": "..."}.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
