package serving

import (
	"encoding/json"
	"fmt"
	"sort"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/stats"
	"seqpoint/internal/trainer"
)

// Spec describes one online-serving simulation.
type Spec struct {
	// Model is the network being served.
	Model models.Model
	// Trace is the arrival process.
	Trace Trace
	// Policy is the batching policy.
	Policy Policy
	// KV enables the per-replica KV-cache capacity model with
	// prefill/decode-split pricing; nil keeps the compute-only server,
	// byte-identical to the pre-KV simulator.
	KV *KVConfig
	// Profiles overrides the profile source; nil uses the process
	// default (the shared engine when internal/engine is linked).
	Profiles trainer.ProfileSource
}

// Validate reports whether the spec is complete.
func (s Spec) Validate() error {
	switch {
	case s.Model == nil:
		return fmt.Errorf("serving: spec needs a model")
	case s.Policy == nil:
		return fmt.Errorf("serving: spec needs a batching policy")
	case s.Policy.MaxBatch() <= 0:
		return fmt.Errorf("serving: policy %q has non-positive max batch", s.Policy.Name())
	}
	if s.KV != nil {
		if err := s.KV.Validate(); err != nil {
			return err
		}
	}
	return s.Trace.Validate()
}

// RequestMetric is one request's realized timeline.
type RequestMetric struct {
	// ID is the request's trace index.
	ID int `json:"id"`
	// SeqLen is the request's own sequence length.
	SeqLen int `json:"seqlen"`
	// ArrivalUS, StartUS and DoneUS are the arrival, batch-launch and
	// completion times.
	ArrivalUS float64 `json:"arrival_us"`
	StartUS   float64 `json:"start_us"`
	DoneUS    float64 `json:"done_us"`
	// FirstUS is the first-token instant (prefill completion) under the
	// KV model's prefill/decode split; 0 when KV is disabled, where the
	// phases are not separable.
	FirstUS float64 `json:"first_us,omitempty"`
	// BatchSize is the size of the batch that served the request;
	// PaddedSL the batch's padded sequence length (its longest member).
	BatchSize int `json:"batch"`
	PaddedSL  int `json:"padded_sl"`
	// Replica is the fleet replica that served the request; always 0 in
	// single-queue (Simulate) runs.
	Replica int `json:"replica"`
	// Tenant is the request's tenant label; empty (and omitted) on
	// single-tenant traces, keeping their metrics byte-identical to the
	// pre-tenant format.
	Tenant string `json:"tenant,omitempty"`
}

// WaitUS is the request's queueing delay.
func (m RequestMetric) WaitUS() float64 { return m.StartUS - m.ArrivalUS }

// LatencyUS is the request's end-to-end latency (queueing + service).
func (m RequestMetric) LatencyUS() float64 { return m.DoneUS - m.ArrivalUS }

// TTFTUS is the request's time to first token (arrival to prefill
// completion). Only meaningful under the KV model, which separates
// the phases; 0 otherwise.
func (m RequestMetric) TTFTUS() float64 {
	if m.FirstUS == 0 {
		return 0
	}
	return m.FirstUS - m.ArrivalUS
}

// Result is one serving simulation's full outcome.
type Result struct {
	// Config is the hardware configuration served on.
	Config gpusim.Config
	// Policy is the batching policy's name.
	Policy string
	// Requests holds every request's metric in trace (arrival) order.
	Requests []RequestMetric
	// Batches is the number of batches launched.
	Batches int
	// BusyUS is the summed batch execution time.
	BusyUS float64
	// MakespanUS is the completion time of the last batch.
	MakespanUS float64
	// KV is the cache model's roll-up; nil when Spec.KV was nil.
	KV *KVRunStats
}

// policyConsultSlack bounds policy consultations per dispatched batch
// beyond the ones legitimately needed to fill it (every wait-consult
// admits at most one arrival, so a batch of B can take B-1 consults to
// fill). A policy that keeps asking to wait past that is a bug, and
// the bound turns the would-be hang into an error.
const policyConsultSlack = 64

// Simulate runs the serving trace on hw: one server with an unbounded
// queue, which is the fleet event loop with a single round-robin
// replica. Per-batch latencies come from the profile source's eval
// (forward-only) profiles; the trace's unique SLs are prefetched at
// the policy's max batch size in one bulk ProfileSource call. Output
// is byte-identical at any profiling parallelism.
func Simulate(spec Spec, hw gpusim.Config) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if spec.KV != nil {
		// A request whose own cache exceeds the capacity can never be
		// served; a fleet rejects it at admission, the single-queue
		// server has no admission controller and must refuse the trace.
		kv := newKVState(spec.KV, spec.Model)
		for _, r := range spec.Trace.Requests {
			if need := kv.peakBytes(r); need > kv.capacity {
				return nil, fmt.Errorf("serving: request %d needs %v KV bytes, above the %v-byte capacity",
					r.ID, need, kv.capacity)
			}
		}
	}
	fr, err := runFleet(FleetSpec{
		Model:    spec.Model,
		Trace:    spec.Trace,
		Policy:   spec.Policy,
		Router:   NewRoundRobin(),
		Replicas: 1,
		KV:       spec.KV,
		Profiles: spec.Profiles,
	}, hw)
	if err != nil {
		return nil, err
	}
	return &Result{
		Config:     fr.Config,
		Policy:     fr.Policy,
		Requests:   fr.Requests,
		Batches:    fr.Batches,
		BusyUS:     fr.BusyUS,
		MakespanUS: fr.MakespanUS,
		KV:         fr.KV,
	}, nil
}

// takeBatch removes the picked indices from the queue and appends the
// picked requests to dst in queue order, validating the policy's pick.
// scratch is a reusable index buffer (the sorted copy of pick); both
// dst and the possibly-grown scratch are returned so callers can
// recycle them across dispatches — this runs once per batch on the
// hot path, and the old per-call copy + map allocation dominated its
// cost.
func takeBatch(dst []Request, queue *[]Request, pick []int, scratch []int, maxBatch int, policy string) ([]Request, []int, error) {
	q := *queue
	if len(pick) == 0 {
		return dst, scratch, fmt.Errorf("serving: policy %q dispatched an empty batch", policy)
	}
	if len(pick) > maxBatch {
		return dst, scratch, fmt.Errorf("serving: policy %q dispatched %d requests, above its max batch %d",
			policy, len(pick), maxBatch)
	}
	scratch = append(scratch[:0], pick...)
	sort.Ints(scratch)
	for i, idx := range scratch {
		if idx < 0 || idx >= len(q) {
			return dst, scratch, fmt.Errorf("serving: policy %q picked queue index %d of %d", policy, idx, len(q))
		}
		if i > 0 && idx == scratch[i-1] {
			return dst, scratch, fmt.Errorf("serving: policy %q picked queue index %d twice", policy, idx)
		}
		dst = append(dst, q[idx])
	}
	// Sweep the queue once, skipping the sorted picked indices — no
	// taken-set needed.
	rest := q[:0]
	pi := 0
	for i, r := range q {
		if pi < len(scratch) && i == scratch[pi] {
			pi++
			continue
		}
		rest = append(rest, r)
	}
	*queue = rest
	return dst, scratch, nil
}

// Summary is the deterministic, serialization-stable digest of a
// serving run: the roll-up the HTTP endpoint returns and the golden
// determinism tests byte-compare.
type Summary struct {
	Config         string  `json:"config"`
	Policy         string  `json:"policy"`
	Requests       int     `json:"requests"`
	Batches        int     `json:"batches"`
	MeanBatch      float64 `json:"mean_batch"`
	MakespanUS     float64 `json:"makespan_us"`
	BusyUS         float64 `json:"busy_us"`
	UtilizationPct float64 `json:"utilization_pct"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	MeanWaitUS     float64 `json:"mean_wait_us"`
	MeanLatencyUS  float64 `json:"mean_latency_us"`
	P50LatencyUS   float64 `json:"p50_latency_us"`
	P95LatencyUS   float64 `json:"p95_latency_us"`
	P99LatencyUS   float64 `json:"p99_latency_us"`

	// KV-model roll-ups, only emitted when the run had KV enabled
	// (omitempty keeps KV-off summaries byte-identical to the pre-KV
	// format). TTFT is arrival → prefill completion; the end-to-end
	// latency fields above keep their meaning.
	MeanTTFTUS      float64 `json:"mean_ttft_us,omitempty"`
	P50TTFTUS       float64 `json:"p50_ttft_us,omitempty"`
	P95TTFTUS       float64 `json:"p95_ttft_us,omitempty"`
	P99TTFTUS       float64 `json:"p99_ttft_us,omitempty"`
	Preemptions     int     `json:"preemptions,omitempty"`
	KVCapacityBytes float64 `json:"kv_capacity_bytes,omitempty"`
	KVPeakBytes     float64 `json:"kv_peak_bytes,omitempty"`

	// PerTenant rolls latency tails and drop rates up by tenant, sorted
	// by label; nil (and omitted) on single-tenant traces.
	PerTenant []TenantStats `json:"per_tenant,omitempty"`
}

// ttftDigest ranks per-request TTFTs (arrival → prefill completion)
// into a mean and nearest-rank p50/p95/p99. metrics must be non-empty
// and carry FirstUS (a KV-enabled run).
func ttftDigest(metrics []RequestMetric) (mean, p50, p95, p99 float64) {
	ttfts := make([]float64, len(metrics))
	var sum float64
	for i, m := range metrics {
		ttfts[i] = m.TTFTUS()
		sum += ttfts[i]
	}
	mean = sum / float64(len(ttfts))
	if ps, err := stats.PercentilesInPlace(ttfts, 50, 95, 99); err == nil {
		p50, p95, p99 = ps[0], ps[1], ps[2]
	}
	return mean, p50, p95, p99
}

// Latencies returns every request's end-to-end latency in trace order.
func (r *Result) Latencies() []float64 {
	out := make([]float64, len(r.Requests))
	for i, m := range r.Requests {
		out[i] = m.LatencyUS()
	}
	return out
}

// Throughput returns served requests per second over the makespan.
func (r *Result) Throughput() float64 {
	if r.MakespanUS == 0 {
		return 0
	}
	return float64(len(r.Requests)) / (r.MakespanUS / 1e6)
}

// Utilization returns the server's busy fraction of the makespan.
func (r *Result) Utilization() float64 {
	if r.MakespanUS == 0 {
		return 0
	}
	return r.BusyUS / r.MakespanUS
}

// Summary digests the run. Percentiles are nearest-rank
// (stats.Percentile) over per-request end-to-end latencies.
func (r *Result) Summary() Summary {
	s := Summary{
		Config:         r.Config.Name,
		Policy:         r.Policy,
		Requests:       len(r.Requests),
		Batches:        r.Batches,
		MakespanUS:     r.MakespanUS,
		BusyUS:         r.BusyUS,
		UtilizationPct: r.Utilization() * 100,
		ThroughputRPS:  r.Throughput(),
	}
	if r.Batches > 0 {
		s.MeanBatch = float64(len(r.Requests)) / float64(r.Batches)
	}
	if len(r.Requests) == 0 {
		return s
	}
	lats := r.Latencies()
	var waitSum float64
	for _, m := range r.Requests {
		waitSum += m.WaitUS()
	}
	s.MeanWaitUS = waitSum / float64(len(r.Requests))
	s.MeanLatencyUS = stats.Sum(lats) / float64(len(lats))
	// lats is this function's own scratch, so rank in place instead of
	// letting Percentiles duplicate a million-element slice. It only
	// errors on empty input or p outside [0,100]; neither can happen
	// here.
	if ps, err := stats.PercentilesInPlace(lats, 50, 95, 99); err == nil {
		s.P50LatencyUS, s.P95LatencyUS, s.P99LatencyUS = ps[0], ps[1], ps[2]
	}
	if r.KV != nil {
		s.Preemptions = r.KV.Preemptions
		s.KVCapacityBytes = r.KV.CapacityBytes
		s.KVPeakBytes = r.KV.PeakBytes
		s.MeanTTFTUS, s.P50TTFTUS, s.P95TTFTUS, s.P99TTFTUS = ttftDigest(r.Requests)
	}
	s.PerTenant = perTenantStats(r.Requests, nil, r.KV != nil)
	return s
}

// Serialize renders the summary as indented JSON with a trailing
// newline; the output is deterministic and byte-comparable, matching
// the trainer.RunSummary convention.
func (s Summary) Serialize() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
