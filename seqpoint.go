// Package seqpoint reproduces "SeqPoint: Identifying Representative
// Iterations of Sequence-based Neural Networks" (Pati, Aga, Sinclair,
// Jayasena — ISPASS 2020) as a Go library.
//
// SeqPoint makes profiling the training of sequence-based neural
// networks (SQNNs: RNN/GRU/LSTM/attention models) tractable. SQNN
// training iterations are heterogeneous — the padded input sequence
// length (SL) of each batch dictates how much and what kind of work the
// iteration launches — so profiling a few arbitrary iterations, which
// works for CNNs, misrepresents SQNN training. SeqPoint instead:
//
//  1. logs one epoch's unique SLs, their iteration counts, and the
//     runtime of one iteration per SL (architecture-independent);
//  2. bins the SLs into k contiguous ranges and picks per bin the SL
//     whose runtime is closest to the bin average — a SeqPoint —
//     weighted by the bin's iteration population;
//  3. grows k until the self-projection error drops below a threshold;
//  4. projects whole-run statistics on any hardware configuration as
//     the weighted sum (Equation 1) of per-SeqPoint measurements.
//
// This package is the public facade. It re-exports the SeqPoint
// mechanism (internal/core), the baselines the paper compares against,
// and the simulation substrate used by the reproduction: the DS2/GNMT
// model descriptions, synthetic LibriSpeech/IWSLT corpora, the
// analytical GPU performance model standing in for the paper's Vega FE
// testbed, and the training-run simulator. Simulation runs on a
// concurrent engine (internal/engine) with a process-wide profile
// cache: because every iteration at the same padded sequence length
// performs identical work, each (model, config, cluster, batch, phase,
// SL) profile is priced exactly once per process — across runs,
// workloads and goroutines — with singleflight deduplication, and
// sweeps over (workload × config) grids fan out over a bounded worker
// pool. Parallelism never changes results: same seed ⇒ byte-identical
// output at any worker count. See NewEngine, SharedEngine, Sweep and
// EngineStats.
//
// Beyond the paper's single-GPU testbed, the simulator scales out to
// data-parallel multi-GPU clusters: a ClusterConfig describes the
// replica count and the interconnect (ring or fully-connected
// topology, per-link bandwidth and latency, compute/communication
// overlap), and each training step then prices the per-GPU shard
// compute plus an analytical gradient all-reduce (RingAllReduce) over
// the model's parameter bytes. SeqPoint composes unchanged: select
// SeqPoints on a 1-GPU run, then project any cluster size via
// Equation 1 from per-SL step times. See SimulateCluster,
// ClusterConfig, DefaultCluster and the Spec.Cluster field. Typical
// use:
//
//	run, _ := seqpoint.Simulate(seqpoint.Spec{
//	    Model:    seqpoint.NewGNMT(),
//	    Train:    seqpoint.IWSLT15(1),
//	    Batch:    64,
//	    Epochs:   1,
//	    Schedule: seqpoint.GNMTSchedule(),
//	}, seqpoint.VegaFE())
//	recs, _ := seqpoint.RecordsFromRun(run, 0)
//	sel, _ := seqpoint.Select(recs, seqpoint.Options{})
//	// Profile only sel.Points on other configurations and project with
//	// seqpoint.ProjectTotal / seqpoint.ProjectThroughput.
package seqpoint

import (
	"context"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/nn"
	"seqpoint/internal/profiler"
	"seqpoint/internal/tensor"
	"seqpoint/internal/trainer"
)

// Core mechanism types (internal/core).
type (
	// SLRecord is one epoch-log entry: a unique sequence length, its
	// iteration count, and the statistic of one iteration at that SL.
	SLRecord = core.SLRecord
	// SeqPoint is one selected representative iteration.
	SeqPoint = core.SeqPoint
	// Selection is the outcome of representative selection.
	Selection = core.Selection
	// Options tunes SeqPoint selection; the zero value uses the paper's
	// defaults (n=10, initial k=5, e=1%).
	Options = core.Options
	// MethodName identifies a selection strategy in reports.
	MethodName = core.MethodName
)

// Selection strategies.
var (
	// Select runs the SeqPoint mechanism (binning + auto-k).
	Select = core.Select
	// SelectKMeans is the k-means alternative of Section VII-C.
	SelectKMeans = core.SelectKMeans
	// Frequent, Median, Worst and Prior are the single-iteration and
	// contiguous-sampling baselines of the paper's evaluation.
	Frequent = core.Frequent
	Median   = core.Median
	Worst    = core.Worst
	Prior    = core.Prior
)

// Projection helpers (Equation 1 and its normalized/ratio forms).
var (
	ProjectTotal      = core.ProjectTotal
	ProjectMean       = core.ProjectMean
	ProjectThroughput = core.ProjectThroughput
	UpliftPct         = core.UpliftPct
)

// Simulation substrate types.
type (
	// Model is a network description at profiling granularity.
	Model = models.Model
	// Corpus is a training corpus reduced to its sequence lengths.
	Corpus = dataset.Corpus
	// Schedule is a per-epoch batch-ordering policy.
	Schedule = dataset.Schedule
	// Config is one hardware configuration (paper Table II).
	Config = gpusim.Config
	// ClusterConfig describes a data-parallel multi-GPU cluster and its
	// interconnect; the zero value means a single GPU.
	ClusterConfig = gpusim.ClusterConfig
	// Topology names a cluster interconnect wiring (ring or full mesh).
	Topology = gpusim.Topology
	// Simulator prices kernels under a configuration.
	Simulator = gpusim.Simulator
	// Spec describes a training run to simulate.
	Spec = trainer.Spec
	// Run is a simulated training run.
	Run = trainer.Run
	// RunSummary is the deterministic serializable digest of a Run,
	// the unit of the golden determinism tests.
	RunSummary = trainer.RunSummary
	// InferenceSpec describes a serving run to simulate (Section VII-E).
	InferenceSpec = trainer.InferenceSpec
	// InferenceRun is a simulated serving run.
	InferenceRun = trainer.InferenceRun
	// IterationProfile is one iteration's execution profile: runtime,
	// kernel count, counters and tuned shapes. Per-kernel detail comes
	// from TraceIteration.
	IterationProfile = profiler.IterationProfile
)

// Models: the paper's two evaluated SQNNs, the Section VII-B extension
// networks (Transformer, attention-free Seq2Seq), and the CNN used for
// the Fig. 3 homogeneity contrast.
var (
	NewDS2         = models.NewDS2
	NewGNMT        = models.NewGNMT
	NewTransformer = models.NewTransformer
	NewSeq2Seq     = models.NewSeq2Seq
	NewCNN         = models.NewCNN
)

// Datasets: synthetic stand-ins with the paper corpora's sizes and SL
// distribution shapes, plus escape hatches for custom length lists and
// fast demo subsets.
var (
	LibriSpeech100h = dataset.LibriSpeech100h
	LibriSpeechDev  = dataset.LibriSpeechDev
	IWSLT15         = dataset.IWSLT15
	IWSLTTest       = dataset.IWSLTTest
	Synthetic       = dataset.Synthetic
	Subsample       = dataset.Subsample
	PlanEpoch       = dataset.PlanEpoch
)

// Layer library for user-defined models (Section VII-B: SeqPoint applies
// to any network whose computation varies with input sequence length).
// Assemble layers with NewCustomModel; each layer emits the logical ops
// its forward and backward passes launch, as blocks of ops with a
// repeat count.
type (
	// Layer is one network stage.
	Layer = nn.Layer
	// Activation is the symbolic tensor shape flowing between layers.
	Activation = nn.Activation
	// CellKind selects LSTM or GRU for recurrent layers.
	CellKind = nn.CellKind
	// Op is a logical operation with first-order cost quantities.
	Op = tensor.Op
	// Block is a run of ops launched back to back Repeat times; a
	// layer emits its per-timestep ops as one block repeated per step.
	Block = tensor.Block
)

// Flatten returns the launch order of a list of blocks.
var Flatten = tensor.Flatten

// Recurrent cell kinds.
const (
	CellLSTM = nn.CellLSTM
	CellGRU  = nn.CellGRU
)

// Layer constructors.
var (
	NewRecurrent      = nn.NewRecurrent
	NewDense          = nn.NewDense
	NewEmbeddingLayer = nn.NewEmbedding
	NewAttention      = nn.NewAttention
	NewSoftmax        = nn.NewSoftmax
	NewCTCLoss        = nn.NewCTCLoss
	NewConv           = nn.NewConv
	NewBatchNorm      = nn.NewBatchNorm
	NewLayerNorm      = nn.NewLayerNorm
	NewFlatten        = nn.NewFlatten
	NewPool           = nn.NewPool
)

// NewCustomModel assembles a user-defined model from the layer library;
// the builder runs per iteration with the padded sequence length.
var NewCustomModel = models.NewCustom

// ScheduleProfiling partitions SeqPoints across machines (LPT greedy)
// to minimize parallel profiling time — Section VI-F's observation that
// each SeqPoint is an independent iteration.
var ScheduleProfiling = core.ScheduleProfiling

// ProfilingSchedule is a parallel profiling plan over several machines.
type ProfilingSchedule = core.ProfilingSchedule

// Batch-ordering policies.
var (
	DS2Schedule  = dataset.DS2Schedule
	GNMTSchedule = dataset.GNMTSchedule
)

// Cluster topologies.
const (
	TopologyRing     = gpusim.TopologyRing
	TopologyFullMesh = gpusim.TopologyFullMesh
)

// Hardware configurations and simulation.
var (
	// VegaFE is the calibration configuration (config #1).
	VegaFE = gpusim.VegaFE
	// TableII returns the paper's five hardware configurations.
	TableII = gpusim.TableII
	// NewSimulator builds a kernel-pricing simulator for a config.
	NewSimulator = gpusim.New
	// SingleGPU is the canonical one-GPU cluster configuration.
	SingleGPU = gpusim.SingleGPU
	// DefaultCluster returns a ring-connected n-GPU cluster with
	// default link parameters.
	DefaultCluster = gpusim.DefaultCluster
	// ParseTopology maps a CLI spelling to a cluster topology.
	ParseTopology = gpusim.ParseTopology
	// RingAllReduce prices a bandwidth-optimal ring all-reduce of the
	// given gradient bytes (microseconds).
	RingAllReduce = gpusim.RingAllReduceUS
	// MeshAllReduce prices a fully-connected all-reduce.
	MeshAllReduce = gpusim.MeshAllReduceUS
	// Simulate runs a full training simulation.
	Simulate = trainer.Simulate
	// SimulateCluster runs a training simulation on a data-parallel
	// cluster of identical GPUs.
	SimulateCluster = trainer.SimulateCluster
	// SimulateInference runs a serving simulation (Section VII-E).
	SimulateInference = trainer.SimulateInference
	// ProfileIteration profiles one training iteration of a model.
	ProfileIteration = profiler.ProfileIteration
	// TraceIteration returns one iteration's raw kernel stream.
	TraceIteration = profiler.TraceIteration
	// WriteChromeTrace serializes a kernel stream for chrome://tracing.
	WriteChromeTrace = profiler.WriteChromeTrace
)

// Concurrent simulation engine (internal/engine): a process-lifetime
// profile cache with singleflight deduplication plus bounded-parallel
// grid sweeps. SharedEngine is what Simulate profiles through by
// default; build a private engine with NewEngine to isolate caches.
type (
	// Engine is the concurrent profiling engine with a cross-run cache.
	Engine = engine.Engine
	// EngineStats is a snapshot of an engine's cache counters
	// (hits / misses / dedups / entries).
	EngineStats = engine.Stats
	// SweepTask is one (workload spec, config) cell of a sweep grid.
	SweepTask = engine.SweepTask
	// SweepResult is the outcome of one sweep task.
	SweepResult = engine.SweepResult
	// ProfilePhase distinguishes training from evaluation profiles.
	ProfilePhase = engine.Phase
	// ProfileSource is the trainer's profiling seam; an Engine is one.
	ProfileSource = trainer.ProfileSource
)

// Profile phases.
const (
	PhaseTrain = engine.PhaseTrain
	PhaseEval  = engine.PhaseEval
)

var (
	// NewEngine builds a private engine with an empty cache.
	NewEngine = engine.New
	// SharedEngine returns the process-wide engine whose cache every
	// default-configured simulation shares.
	SharedEngine = engine.Shared
	// FingerprintModel hashes a model's op structure — the model
	// component of the engine's cache key.
	FingerprintModel = engine.Fingerprint
)

// Sweep simulates a (workload × config) grid on the shared engine with
// at most `parallelism` concurrent runs (<= 0 uses the engine default),
// returning results in task order. Results are identical at any
// parallelism; profiles are shared across all cells and with every
// other simulation in the process.
func Sweep(ctx context.Context, tasks []SweepTask, parallelism int) []SweepResult {
	return engine.Shared().Sweep(ctx, tasks, parallelism)
}

// EngineCacheStats returns the shared engine's cache counters — the
// observable measure of cross-run profile reuse.
func EngineCacheStats() EngineStats {
	return engine.Shared().Stats()
}

// RecordsFromRun extracts the SeqPoint input — per-unique-SL iteration
// counts and runtimes — from one epoch of a simulated (or measured) run.
func RecordsFromRun(run *Run, epoch int) ([]SLRecord, error) {
	return experiments.SLRecords(run, epoch)
}

// IterTimesBySL returns each unique SL's single-iteration runtime under
// the run's configuration — the per-config measurement map the
// projection helpers consume.
func IterTimesBySL(run *Run) map[int]float64 {
	out := make(map[int]float64, len(run.BySL))
	for sl, p := range run.BySL {
		out[sl] = p.TimeUS
	}
	return out
}
