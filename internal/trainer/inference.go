package trainer

import (
	"fmt"
	"sort"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
)

// InferenceSpec describes a simulated inference (serving) run: forward-
// only passes over a request corpus. The paper's Section VII-E observes
// that SeqPoint's insight — sequence length dictates per-request work —
// applies to inference too; this simulator provides the per-SL latency
// log that the same binning methodology consumes.
type InferenceSpec struct {
	// Model is the network to serve.
	Model models.Model
	// Requests is the request corpus (each sample one request).
	Requests *dataset.Corpus
	// Batch is the serving batch size; latency-sensitive deployments
	// often use 1, throughput-oriented ones larger batches.
	Batch int
	// Seed drives request-order shuffling.
	Seed int64
	// Profiles overrides the profile source for this run; nil uses the
	// process default (see Spec.Profiles).
	Profiles ProfileSource
}

// Validate reports whether the spec is complete.
func (s InferenceSpec) Validate() error {
	switch {
	case s.Model == nil:
		return fmt.Errorf("trainer: inference spec needs a model")
	case s.Requests == nil:
		return fmt.Errorf("trainer: inference spec needs a request corpus")
	case s.Batch <= 0:
		return fmt.Errorf("trainer: inference batch must be positive, got %d", s.Batch)
	}
	return nil
}

// InferenceRun is a simulated serving run over the request corpus.
type InferenceRun struct {
	// Config is the hardware configuration.
	Config gpusim.Config
	// LatencyBySL memoizes the per-batch forward latency per unique
	// padded SL.
	LatencyBySL map[int]float64
	// BatchSLs is the padded SL of each served batch, in order.
	BatchSLs []int
	// TotalUS is the summed serving time.
	TotalUS float64
	// Batch is the serving batch size.
	Batch int
}

// SimulateInference serves one pass over the request corpus on hw,
// batching requests as they arrive (shuffled order — serving traffic is
// not length-sorted) and padding each batch to its longest request.
func SimulateInference(spec InferenceSpec, hw gpusim.Config) (*InferenceRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	src := spec.Profiles
	if src == nil {
		src = DefaultProfileSource()
	}
	plan, err := dataset.PlanEpoch(spec.Requests, spec.Batch, dataset.OrderShuffled, spec.Seed)
	if err != nil {
		return nil, err
	}
	profiles, err := src.EvalProfiles(hw, gpusim.SingleGPU(), spec.Model, spec.Batch, uniqueSLs([]dataset.EpochPlan{plan}))
	if err != nil {
		return nil, err
	}

	run := &InferenceRun{
		Config:      hw,
		LatencyBySL: make(map[int]float64),
		BatchSLs:    plan.SeqLens,
		Batch:       spec.Batch,
	}
	for _, sl := range plan.SeqLens {
		lat, ok := run.LatencyBySL[sl]
		if !ok {
			p, ok := profiles[sl]
			if !ok {
				return nil, fmt.Errorf("trainer: profile source returned no eval profile for SL %d", sl)
			}
			lat = p.TimeUS
			run.LatencyBySL[sl] = lat
		}
		run.TotalUS += lat
	}
	return run, nil
}

// LatencyPercentiles returns the p50, p90 and p99 per-batch latency in
// microseconds over the serving run — the tail metrics SL heterogeneity
// distorts when inference is characterized from arbitrary requests.
func (r *InferenceRun) LatencyPercentiles() (p50, p90, p99 float64) {
	if len(r.BatchSLs) == 0 {
		return 0, 0, 0
	}
	lats := make([]float64, len(r.BatchSLs))
	for i, sl := range r.BatchSLs {
		lats[i] = r.LatencyBySL[sl]
	}
	sort.Float64s(lats)
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return at(0.50), at(0.90), at(0.99)
}

// SLSummaries returns the per-unique-SL request log — frequency and
// latency — the SeqPoint mechanism consumes to pick representative
// request lengths for inference characterization (Section VII-E).
func (r *InferenceRun) SLSummaries() []SLSummary {
	counts := make(map[int]int)
	for _, sl := range r.BatchSLs {
		counts[sl]++
	}
	out := make([]SLSummary, 0, len(counts))
	for sl, c := range counts {
		out = append(out, SLSummary{SeqLen: sl, Count: c, IterTimeUS: r.LatencyBySL[sl]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SeqLen < out[j].SeqLen })
	return out
}
