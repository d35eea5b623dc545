package server

import (
	"errors"
	"fmt"
	"math"

	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/serving"
	"seqpoint/internal/workload"
)

// Defaults for WorkloadSpec fields left zero, applied by normalize.
const (
	// DefaultServePolicy is timeout-bounded dynamic batching: the only
	// policy that behaves sanely at every arrival rate.
	DefaultServePolicy = serving.PolicyDynamic
	// DefaultServeTimeoutUS caps queueing delay at low load.
	DefaultServeTimeoutUS = 50_000
	// DefaultServeRequests is the default trace length.
	DefaultServeRequests = experiments.DefaultServeRequests
	// maxServeRate bounds the Poisson arrival rate: beyond this every
	// request of the trace effectively arrives at once, which
	// BurstTrace models directly.
	maxServeRate = 1e9
	// DefaultPatternAmplitude is the diurnal swing applied when a
	// diurnal pattern leaves the amplitude unset: the rate oscillates
	// between 0.5× and 1.5× the requested mean.
	DefaultPatternAmplitude = 0.5
	// maxTenantCohorts and maxTenantsPerCohort bound one request's
	// tenant dimension the way replicas and requests already are.
	maxTenantCohorts    = 8
	maxTenantsPerCohort = 128
)

// TenantSpec is one tenant cohort of a generated multi-tenant workload
// over the wire: a class of tenants sharing a traffic shape.
type TenantSpec struct {
	// Class labels the cohort; tenant names are "<class>-<i>".
	Class string `json:"class"`
	// Count is the number of tenants in the cohort.
	Count int `json:"count"`
	// Weight is the cohort's relative share of arrival events; 0
	// defaults to 1.
	Weight float64 `json:"weight,omitempty"`
	// ZipfS skews tenant popularity within the cohort (tenant i drawn
	// with weight 1/(i+1)^s); 0 is uniform.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// SeqLens is the cohort's request-length pool; empty draws from the
	// envelope's corpus (or its seqlens override).
	SeqLens []int `json:"seqlens,omitempty"`
	// DecodeSteps stamps every request of the cohort; needs the KV
	// model.
	DecodeSteps int `json:"decode_steps,omitempty"`
	// Burst is the bulk-submission clump size: each arrival event of
	// the cohort emits this many requests at the same instant.
	Burst int `json:"burst,omitempty"`
}

// WorkloadSpec is the request envelope shared by every serving-family
// endpoint (/v1/serve, /v1/fleet, /v1/plan): the served model and
// arrival process, the hardware configuration, the batching policy,
// the trace shape, and the optional KV-cache memory model. It is
// embedded — not nested — by ServeRequest, FleetRequest and
// PlanRequest, so the wire shape stays the flat field set older
// clients already send, while normalization, validation and setup
// resolution live in exactly one place.
type WorkloadSpec struct {
	// Model selects the served network: "ds2", "gnmt", "transformer"
	// or "seq2seq". The workload fixes the request-length corpus.
	Model string `json:"model"`
	// Rate is the Poisson arrival rate in requests per second.
	Rate float64 `json:"rate"`
	// Config names the hardware configuration ("#1".."#5").
	Config string `json:"config,omitempty"`
	// Batch is the batching policy's max batch size.
	Batch int `json:"batch,omitempty"`
	// Policy selects the batching policy: "fixed", "dynamic" or
	// "length".
	Policy string `json:"policy,omitempty"`
	// TimeoutUS is the dynamic policy's batching window in
	// microseconds; nil uses the default. A pointer, not a float, so
	// an explicit 0 (serve-immediately) survives normalization.
	TimeoutUS *float64 `json:"timeout_us,omitempty"`
	// Requests is the trace length.
	Requests int `json:"requests,omitempty"`
	// Seed drives arrival times and request-length sampling.
	Seed int64 `json:"seed,omitempty"`
	// SeqLens, when set, replaces the workload corpus as the pool
	// request lengths are drawn from.
	SeqLens []int `json:"seqlens,omitempty"`
	// KVCapacityGB enables the per-replica KV-cache capacity model
	// (decimal gigabytes). A pointer so absent means disabled; with it
	// set, requests are prefill + decode and TTFT fields appear in the
	// summary.
	KVCapacityGB *float64 `json:"kv_capacity_gb,omitempty"`
	// DecodeSteps is the decode length per request under the KV model.
	DecodeSteps int `json:"decode_steps,omitempty"`
	// KVPreempt selects the over-capacity behavior: "evict" (default)
	// or "block".
	KVPreempt string `json:"kv_preempt,omitempty"`
	// Tenants enables the multi-tenant workload generator: one cohort
	// per entry, tenant popularity Zipf-skewed within each. Per-tenant
	// latency/TTFT/drop roll-ups appear in the summary.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Pattern shapes the arrival rate over time: "uniform" (default)
	// or "diurnal".
	Pattern string `json:"pattern,omitempty"`
	// PatternPeriodUS is one diurnal cycle in microseconds; nil
	// defaults to half the expected trace horizon (two full cycles per
	// trace).
	PatternPeriodUS *float64 `json:"pattern_period_us,omitempty"`
	// PatternAmplitude is the diurnal swing in [0, 1); nil defaults to
	// DefaultPatternAmplitude.
	PatternAmplitude *float64 `json:"pattern_amplitude,omitempty"`
	// TraceFile replays a recorded trace file (see workload.WriteTrace)
	// instead of generating arrivals; incompatible with seqlens,
	// tenants and pattern. With Rate set the trace is rescaled to offer
	// that rate; with Rate 0 it replays as recorded (/v1/plan requires
	// Rate — the planner searches the load axis).
	TraceFile string `json:"trace_file,omitempty"`
}

// kvConfig maps the wire knobs to the simulator's KV configuration;
// nil when the capacity model is disabled.
func (r WorkloadSpec) kvConfig() *serving.KVConfig {
	if r.KVCapacityGB == nil {
		return nil
	}
	return &serving.KVConfig{
		CapacityBytes: *r.KVCapacityGB * 1e9,
		DecodeSteps:   r.DecodeSteps,
		Preempt:       r.KVPreempt,
	}
}

// normalize fills defaults in place; the normalized form doubles as
// the coalescing identity.
func (r WorkloadSpec) normalize() WorkloadSpec {
	if r.Config == "" {
		r.Config = DefaultConfig
	}
	if r.Batch == 0 {
		r.Batch = experiments.DefaultBatch
	}
	if r.Policy == "" {
		r.Policy = DefaultServePolicy
	}
	if r.TimeoutUS == nil {
		v := float64(DefaultServeTimeoutUS)
		r.TimeoutUS = &v
	}
	if r.Requests == 0 {
		r.Requests = DefaultServeRequests
	}
	if r.Seed == 0 {
		r.Seed = experiments.DefaultSeed
	}
	if r.Pattern == workload.PatternDiurnal {
		if r.PatternAmplitude == nil {
			v := float64(DefaultPatternAmplitude)
			r.PatternAmplitude = &v
		}
		if r.PatternPeriodUS == nil && r.Rate > 0 {
			v := float64(r.Requests) / r.Rate * 1e6 / 2
			r.PatternPeriodUS = &v
		}
	}
	return r
}

// limits applies the daemon's size limits to a normalized envelope.
// They bound one request's work, so the handlers run them before Spec
// generates anything; Spec does not apply them.
func (r WorkloadSpec) limits() error {
	switch {
	case r.Rate > maxServeRate:
		return fmt.Errorf("rate must be in (0, %g] requests/s, got %v", float64(maxServeRate), r.Rate)
	case r.Batch > maxBatch:
		return fmt.Errorf("batch %d exceeds the server limit %d", r.Batch, maxBatch)
	case r.Requests > maxSeqLens:
		return fmt.Errorf("requests %d exceeds the %d-request limit", r.Requests, maxSeqLens)
	case len(r.Tenants) > maxTenantCohorts:
		return fmt.Errorf("tenants lists %d cohorts, more than the %d-cohort limit", len(r.Tenants), maxTenantCohorts)
	}
	for _, t := range r.Tenants {
		// The message states the whole range; the generator rejects an
		// empty cohort for every other caller of Spec.
		if t.Count < 1 || t.Count > maxTenantsPerCohort {
			return fmt.Errorf("tenant cohort %q count must be in [1, %d], got %d", t.Class, maxTenantsPerCohort, t.Count)
		}
		if err := seqLenBounds(t.SeqLens); err != nil {
			return fmt.Errorf("tenant cohort %q: %w", t.Class, err)
		}
	}
	return seqLenBounds(r.SeqLens)
}

// check applies the envelope's shape rules, which every caller of Spec
// gets.
func (r WorkloadSpec) check() error {
	// A replayed trace file carries its own arrivals, so rate becomes an
	// optional rescaling knob there; everywhere else it is required.
	if (r.TraceFile == "" || r.Rate != 0) && (r.Rate <= 0 || math.IsNaN(r.Rate)) {
		return fmt.Errorf("rate must be in (0, %g] requests/s, got %v", float64(maxServeRate), r.Rate)
	}
	if err := r.validateTraceSource(); err != nil {
		return err
	}
	switch {
	case r.Batch <= 0:
		return fmt.Errorf("batch must be positive, got %d", r.Batch)
	case r.Requests <= 0:
		return fmt.Errorf("requests must be positive, got %d", r.Requests)
	case *r.TimeoutUS < 0 || math.IsNaN(*r.TimeoutUS) || math.IsInf(*r.TimeoutUS, 0):
		return fmt.Errorf("timeout_us must be a finite non-negative duration, got %v", *r.TimeoutUS)
	}
	if kv := r.kvConfig(); kv != nil {
		if err := kv.Validate(); err != nil {
			return withCode(CodeKVCapacity, fmt.Errorf("kv_capacity_gb: %w", err))
		}
	} else if r.DecodeSteps != 0 || r.KVPreempt != "" {
		return withCode(CodeKVCapacity, fmt.Errorf("decode_steps and kv_preempt need the KV model: set kv_capacity_gb"))
	} else {
		for _, t := range r.Tenants {
			if t.DecodeSteps != 0 {
				return withCode(CodeKVCapacity, fmt.Errorf("tenant cohort %q decode_steps needs the KV model: set kv_capacity_gb", t.Class))
			}
		}
	}
	return nil
}

// validateTraceSource checks the arrival-source knobs: the trace file,
// the generator pattern, and the tenant cohorts. Exactly one arrival
// source is in play — a replayed file or a (possibly shaped) generated
// trace.
func (r WorkloadSpec) validateTraceSource() error {
	if r.TraceFile != "" {
		switch {
		case len(r.SeqLens) > 0:
			return fmt.Errorf("trace_file and seqlens are incompatible: the trace carries its own request lengths")
		case len(r.Tenants) > 0:
			return fmt.Errorf("trace_file and tenants are incompatible: the trace carries its own tenants")
		case r.Pattern != "":
			return fmt.Errorf("trace_file and pattern are incompatible: the trace carries its own arrivals")
		}
	}
	switch r.Pattern {
	case "", workload.PatternUniform:
		if r.PatternPeriodUS != nil || r.PatternAmplitude != nil {
			return fmt.Errorf("pattern_period_us and pattern_amplitude need pattern %q", workload.PatternDiurnal)
		}
	case workload.PatternDiurnal:
		if p := r.PatternPeriodUS; p != nil && (*p <= 0 || math.IsNaN(*p) || math.IsInf(*p, 0)) {
			return fmt.Errorf("pattern_period_us must be a positive finite duration, got %v", *p)
		}
		if a := r.PatternAmplitude; a != nil && (*a < 0 || *a >= 1 || math.IsNaN(*a)) {
			return fmt.Errorf("pattern_amplitude must be in [0, 1), got %v", *a)
		}
	default:
		return fmt.Errorf("unknown pattern %q (want %s or %s)", r.Pattern, workload.PatternUniform, workload.PatternDiurnal)
	}
	for _, t := range r.Tenants {
		if t.Class == "" {
			return fmt.Errorf("every tenant cohort needs a class label")
		}
	}
	return nil
}

// buildWorkloadSetup resolves a normalized workload envelope into its
// workload (with the request's synthetic corpus in place of the named
// corpora, which are then never generated, when seqlens are given),
// hardware, batching policy and arrival trace. Every failure is a
// client error (HTTP 400).
func buildWorkloadSetup(req WorkloadSpec) (experiments.Workload, gpusim.Config, serving.Policy, serving.Trace, error) {
	var (
		zeroW  experiments.Workload
		zeroHW gpusim.Config
		zeroT  serving.Trace
	)
	sm, err := experiments.LookupServed(req.Model)
	if err != nil {
		// Keep the registry's explanatory message for cnn (a model that
		// exists but is not servable); everything else gets the
		// wire-facing model list.
		if req.Model != "cnn" {
			err = fmt.Errorf("unknown model %q (want ds2, gnmt, transformer or seq2seq)", req.Model)
		}
		return zeroW, zeroHW, nil, zeroT, err
	}
	hw, err := configByName(req.Config)
	if err != nil {
		return zeroW, zeroHW, nil, zeroT, err
	}
	policy, err := serving.ParsePolicy(req.Policy, req.Batch, *req.TimeoutUS)
	if err != nil {
		return zeroW, zeroHW, nil, zeroT, err
	}
	var w experiments.Workload
	if len(req.SeqLens) > 0 {
		corpus, err := sm.CustomCorpus(req.SeqLens, sm.Vocab)
		if err != nil {
			return zeroW, zeroHW, nil, zeroT, fmt.Errorf("invalid seqlens: %w", err)
		}
		w = sm.WorkloadWith(corpus, corpus, req.Seed)
	} else {
		w = sm.Workload(req.Seed)
	}
	trace, err := buildTrace(req, w)
	if err != nil {
		return zeroW, zeroHW, nil, zeroT, err
	}
	// A degenerate rate (e.g. denormal-small) can overflow arrival
	// times to +Inf; that is the client's input, so catch it here as a
	// 400 — with the typed bad_trace code — rather than letting the
	// simulation fail with a 500.
	if err := trace.Validate(); err != nil {
		return zeroW, zeroHW, nil, zeroT, codeBadTrace(err)
	}
	return w, hw, policy, trace, nil
}

// codeBadTrace attaches the bad_trace wire code to trace-validation
// failures, leaving other errors untouched.
func codeBadTrace(err error) error {
	if errors.Is(err, workload.ErrBadTrace) {
		return withCode(CodeBadTrace, err)
	}
	return err
}

// buildTrace resolves the envelope's arrival source: a replayed trace
// file, the multi-tenant generator (when tenants or a pattern are
// given), or the default Poisson process.
func buildTrace(req WorkloadSpec, w experiments.Workload) (serving.Trace, error) {
	var zeroT serving.Trace
	if req.TraceFile != "" {
		return loadTraceFile(req.TraceFile, req.Rate)
	}
	if len(req.Tenants) > 0 || req.Pattern != "" {
		spec, err := genSpec(req, w)
		if err != nil {
			return zeroT, err
		}
		return workload.Generate(spec)
	}
	return serving.PoissonTrace(w.Train, req.Requests, req.Rate, req.Seed)
}

// loadTraceFile loads and fully validates a recorded trace, rescaling
// it to the requested rate when one is given. Trace corruption carries
// the bad_trace wire code.
func loadTraceFile(path string, rate float64) (serving.Trace, error) {
	var zeroT serving.Trace
	tr, err := workload.LoadTrace(path)
	if err != nil {
		return zeroT, codeBadTrace(err)
	}
	if rate > 0 {
		if tr, err = tr.ScaleToRate(rate); err != nil {
			return zeroT, err
		}
	}
	return tr, nil
}

// traceFileLimit applies the daemon's cap on a replayed trace file,
// the one limit that only loading the file can check.
func (r WorkloadSpec) traceFileLimit(tr serving.Trace) error {
	if r.TraceFile != "" && len(tr.Requests) > maxSeqLens {
		return fmt.Errorf("trace file holds %d requests, more than the %d-request limit", len(tr.Requests), maxSeqLens)
	}
	return nil
}

// genSpec maps the wire tenant/pattern knobs to the workload
// generator's spec. Cohorts without their own length pool draw from
// the envelope's corpus; no cohorts at all means one anonymous cohort
// (pattern shaping without tenancy).
func genSpec(req WorkloadSpec, w experiments.Workload) (workload.GenSpec, error) {
	cohorts := make([]workload.Cohort, 0, max(1, len(req.Tenants)))
	for _, t := range req.Tenants {
		weight := t.Weight
		if weight == 0 {
			weight = 1
		}
		sls := t.SeqLens
		if len(sls) == 0 {
			sls = w.Train.Lengths
		}
		cohorts = append(cohorts, workload.Cohort{
			Class:       t.Class,
			Tenants:     t.Count,
			Weight:      weight,
			ZipfS:       t.ZipfS,
			SeqLens:     sls,
			DecodeSteps: t.DecodeSteps,
			Burst:       t.Burst,
		})
	}
	if len(cohorts) == 0 {
		cohorts = append(cohorts, workload.Cohort{Tenants: 1, Weight: 1, SeqLens: w.Train.Lengths})
	}
	pattern := workload.Pattern{Kind: req.Pattern}
	if req.Pattern == workload.PatternDiurnal {
		// normalize filled both pointers (rate is validated positive on
		// every generated-trace path before setup runs).
		pattern.PeriodUS = *req.PatternPeriodUS
		pattern.Amplitude = *req.PatternAmplitude
	}
	return workload.GenSpec{
		Requests:   req.Requests,
		RatePerSec: req.Rate,
		Seed:       req.Seed,
		Pattern:    pattern,
		Cohorts:    cohorts,
	}, nil
}
