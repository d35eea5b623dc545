// Package trainer simulates complete SQNN training runs: multiple
// epochs of per-iteration execution (priced by the GPU model), the
// per-epoch evaluation phase, and the first-epoch autotune overhead.
// Its output — per-iteration runtimes keyed by sequence length, plus
// whole-run totals — is both the ground truth the evaluation compares
// against ("full training run" measurements) and the single-epoch log
// the SeqPoint mechanism starts from (Fig. 10, step 1).
//
// The simulation exploits the paper's key observation 4/5: with
// pad-to-max batching and no data-dependent optimizations, every
// iteration with the same padded sequence length performs identical
// work, so profiles are memoized per unique SL. This is a property of
// the modeled system, not an approximation.
//
// A run never builds an op stream or prices a kernel itself: iteration
// time comes from the profile source, and the first-epoch autotune
// overhead is charged from the tuned shapes each training profile
// records (see profiler.AutotuneUS), in plan order.
package trainer

import (
	"fmt"
	"sync"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
)

// ProfileSource supplies per-unique-SL step profiles to the simulator.
// It is the seam through which a process-wide engine (see
// internal/engine) can dedupe and parallelize profiling across runs;
// the direct source computes each profile in place. Implementations
// must be deterministic: the profile returned for a (config, cluster,
// model, batch, SL) tuple may not depend on call order or concurrency.
// `batch` is always the global minibatch; sources derive the per-GPU
// shard from the cluster configuration.
type ProfileSource interface {
	// TrainProfiles returns one training-step profile per requested
	// sequence length (per-GPU forward + backward + optimizer, plus the
	// exposed gradient all-reduce on multi-GPU clusters), each carrying
	// the tuned shapes of its shard-batch iteration, which autotune is
	// charged from.
	TrainProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error)
	// EvalProfiles returns one forward-only evaluation profile per
	// requested sequence length, computed on the per-GPU shard batch.
	EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error)
}

// directSource prices every requested profile in place, sequentially —
// the engine-free fallback with no cross-run reuse.
type directSource struct{}

func (directSource) TrainProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	return directProfiles(hw, cl, m, batch, seqLens, profiler.ProfileStep)
}

func (directSource) EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	return directProfiles(hw, cl, m, batch, seqLens, profiler.ProfileEvalStep)
}

func directProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int,
	profile func(*gpusim.Simulator, gpusim.ClusterConfig, models.Model, int, int) (profiler.IterationProfile, error),
) (map[int]profiler.IterationProfile, error) {
	sim, err := gpusim.New(hw)
	if err != nil {
		return nil, err
	}
	out := make(map[int]profiler.IterationProfile, len(seqLens))
	for _, sl := range seqLens {
		if _, ok := out[sl]; ok {
			continue
		}
		p, err := profile(sim, cl, m, batch, sl)
		if err != nil {
			return nil, err
		}
		out[sl] = p
	}
	return out, nil
}

// DirectProfileSource returns the sequential, uncached profile source.
func DirectProfileSource() ProfileSource { return directSource{} }

var (
	defaultSourceMu sync.RWMutex
	defaultSource   ProfileSource = directSource{}
)

// SetDefaultProfileSource installs the source Simulate uses when
// Spec.Profiles is nil. internal/engine registers its shared engine
// here at init, so any binary linking the engine profiles through the
// process-wide cache by default.
func SetDefaultProfileSource(s ProfileSource) {
	defaultSourceMu.Lock()
	defer defaultSourceMu.Unlock()
	if s == nil {
		s = directSource{}
	}
	defaultSource = s
}

// DefaultProfileSource returns the source Simulate uses when
// Spec.Profiles is nil.
func DefaultProfileSource() ProfileSource {
	defaultSourceMu.RLock()
	defer defaultSourceMu.RUnlock()
	return defaultSource
}

// Spec describes a training run to simulate.
type Spec struct {
	// Model is the network to train.
	Model models.Model
	// Train is the training corpus; Eval the held-out evaluation corpus
	// run after every epoch (nil to skip evaluation).
	Train *dataset.Corpus
	Eval  *dataset.Corpus
	// Batch is the minibatch size (64 for both paper workloads).
	Batch int
	// Epochs is the number of training epochs to simulate.
	Epochs int
	// Schedule is the per-epoch sample-ordering policy.
	Schedule dataset.Schedule
	// Seed drives all shuffling.
	Seed int64
	// Cluster describes the data-parallel multi-GPU set-up. The zero
	// value (and any single-GPU spelling) trains on one GPU with no
	// communication term, exactly as before the cluster layer existed.
	Cluster gpusim.ClusterConfig
	// Profiles overrides the profile source for this run; nil uses the
	// process default (the shared engine when internal/engine is linked,
	// otherwise direct sequential profiling). Either way the simulated
	// results are identical; only profiling cost and reuse differ.
	Profiles ProfileSource
}

// Validate reports whether the spec is complete.
func (s Spec) Validate() error {
	switch {
	case s.Model == nil:
		return fmt.Errorf("trainer: spec needs a model")
	case s.Train == nil:
		return fmt.Errorf("trainer: spec needs a training corpus")
	case s.Batch <= 0:
		return fmt.Errorf("trainer: batch size must be positive, got %d", s.Batch)
	case s.Epochs <= 0:
		return fmt.Errorf("trainer: epoch count must be positive, got %d", s.Epochs)
	}
	return s.Cluster.Validate()
}

// Run is a simulated training run on one hardware configuration
// (optionally a data-parallel cluster of them).
type Run struct {
	// Config is the per-GPU hardware configuration the run executed on.
	Config gpusim.Config
	// Cluster is the normalized data-parallel configuration.
	Cluster gpusim.ClusterConfig
	// EpochPlans holds the realized iteration order of every epoch.
	EpochPlans []dataset.EpochPlan
	// BySL memoizes the training-step profile per unique padded SL. On
	// a multi-GPU cluster each profile prices the per-GPU shard compute
	// plus the exposed all-reduce (profile.CommUS).
	BySL map[int]profiler.IterationProfile
	// TrainUS is the summed wall-clock time of all training steps,
	// including exposed gradient communication.
	TrainUS float64
	// CommUS is the exposed gradient-communication share of TrainUS
	// (zero on a single GPU).
	CommUS float64
	// EvalUS is the summed runtime of all evaluation phases.
	EvalUS float64
	// AutotuneUS is the one-time kernel-selection overhead.
	AutotuneUS float64
	// Iterations is the total training-step count.
	Iterations int
	// Samples is the total number of training samples processed.
	Samples int
	// Batch is the global minibatch size.
	Batch int
}

// TotalUS is the end-to-end run time: training + evaluation + autotune.
func (r *Run) TotalUS() float64 { return r.TrainUS + r.EvalUS + r.AutotuneUS }

// Throughput is training throughput in samples/s over training
// iterations — the speedup metric of Section VI-C.
func (r *Run) Throughput() float64 {
	if r.TrainUS == 0 {
		return 0
	}
	return float64(r.Samples) / (r.TrainUS / 1e6)
}

// Simulate runs the full training described by spec on hw.
//
// Profiling goes through the spec's ProfileSource: the unique sequence
// lengths of the whole run are profiled up front (the source may fan
// them out or serve them from a cross-run cache), then the run is
// aggregated sequentially in plan order. The aggregation order never
// depends on the source or its concurrency, so results are
// byte-identical to the engine-free sequential path.
func Simulate(spec Spec, hw gpusim.Config) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Iteration profiles, and the tuned shapes autotune charges from,
	// come from the source; hw is still validated before any profiling
	// work starts.
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	src := spec.Profiles
	if src == nil {
		src = DefaultProfileSource()
	}
	cl := spec.Cluster.Normalized()
	plans, err := dataset.PlanTraining(spec.Train, spec.Batch, spec.Epochs, spec.Schedule, spec.Seed)
	if err != nil {
		return nil, err
	}

	profiles, err := src.TrainProfiles(hw, cl, spec.Model, spec.Batch, uniqueSLs(plans))
	if err != nil {
		return nil, err
	}

	// The evaluation pass is identical every epoch — same corpus, batch
	// and seed yield the same plan, and profiles depend on nothing else —
	// so it is priced once and charged per epoch.
	var evalOnceUS float64
	if spec.Eval != nil {
		evalOnceUS, err = evalEpochUS(src, spec, hw, cl)
		if err != nil {
			return nil, err
		}
	}

	run := &Run{
		Config:     hw,
		Cluster:    cl,
		EpochPlans: plans,
		BySL:       make(map[int]profiler.IterationProfile, len(profiles)),
		Batch:      spec.Batch,
	}
	// Autotune runs once per replica, concurrently on every GPU against
	// the shard-batch shapes, so the cluster pays it once at shard size:
	// the shapes each step profile records, which are priced on the
	// shard batch.
	tunedShapes := make(map[string]bool)

	for _, plan := range plans {
		for _, sl := range plan.SeqLens {
			p, ok := run.BySL[sl]
			if !ok {
				p, ok = profiles[sl]
				if !ok {
					return nil, fmt.Errorf("trainer: profile source returned no profile for SL %d", sl)
				}
				run.BySL[sl] = p
				run.AutotuneUS += profiler.AutotuneUS(p, tunedShapes)
			}
			run.TrainUS += p.TimeUS
			run.CommUS += p.CommUS
			run.Iterations++
			run.Samples += spec.Batch
		}
		if spec.Eval != nil {
			run.EvalUS += evalOnceUS
		}
	}
	return run, nil
}

// SimulateCluster runs the full training described by spec on a
// data-parallel cluster of hw replicas: a convenience wrapper that pins
// the spec's cluster configuration before simulating.
func SimulateCluster(spec Spec, hw gpusim.Config, cl gpusim.ClusterConfig) (*Run, error) {
	spec.Cluster = cl
	return Simulate(spec, hw)
}

// uniqueSLs returns the distinct sequence lengths of the plans in
// first-encounter order.
func uniqueSLs(plans []dataset.EpochPlan) []int {
	seen := make(map[int]bool)
	var out []int
	for _, plan := range plans {
		for _, sl := range plan.SeqLens {
			if !seen[sl] {
				seen[sl] = true
				out = append(out, sl)
			}
		}
	}
	return out
}

// evalEpochUS prices one pass over the evaluation corpus (forward only,
// bucketed batching, deterministic order, sharded across the cluster).
func evalEpochUS(src ProfileSource, spec Spec, hw gpusim.Config, cl gpusim.ClusterConfig) (float64, error) {
	plan, err := dataset.PlanEpoch(spec.Eval, spec.Batch, dataset.OrderBucketed, spec.Seed)
	if err != nil {
		return 0, err
	}
	profiles, err := src.EvalProfiles(hw, cl, spec.Model, spec.Batch, uniqueSLs([]dataset.EpochPlan{plan}))
	if err != nil {
		return 0, err
	}
	var us float64
	for _, sl := range plan.SeqLens {
		p, ok := profiles[sl]
		if !ok {
			return 0, fmt.Errorf("trainer: profile source returned no eval profile for SL %d", sl)
		}
		us += p.TimeUS
	}
	return us, nil
}
