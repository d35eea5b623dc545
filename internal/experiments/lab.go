// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated substrate: the characterization data
// (Figs 3-9, Table I), the projection accuracy of SeqPoint and its
// baselines (Figs 11, 12, 15, 16), the per-SL sensitivity curves
// (Figs 13, 14), the profiling-cost reduction (Section VI-F), and the
// k-means ablation (Section VII-C). Each experiment returns a structured
// result with a text rendering; cmd/experiments and the repository-root
// benchmarks drive them.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/trainer"
)

// Workload bundles a model with its dataset and training configuration,
// mirroring the paper's two evaluation set-ups (Section VI-B).
type Workload struct {
	// Name labels the workload ("ds2", "gnmt", "cnn").
	Name string
	// Model is the network.
	Model models.Model
	// Train and Eval are the corpora.
	Train, Eval *dataset.Corpus
	// Schedule is the per-epoch batching policy.
	Schedule dataset.Schedule
	// Batch is the minibatch size.
	Batch int
	// Epochs is the simulated training length.
	Epochs int
	// Seed drives data generation and shuffling.
	Seed int64
	// Cluster is the data-parallel multi-GPU configuration; the zero
	// value trains on a single GPU.
	Cluster gpusim.ClusterConfig
}

// Default workload parameters. Two epochs keep experiment runtime low
// while still exercising the multi-epoch structure; all per-epoch
// quantities (SL multiset, therefore projections) are epoch-invariant
// under the sorted/bucketed/pooled policies.
const (
	DefaultBatch  = 64
	DefaultEpochs = 2
	DefaultSeed   = 1
)

// ServedModel is the registry entry of a model served online: its
// model, batching schedule and named corpora. The corpora are generated
// only when a resolution asks for them, so a request that brings its
// own sequence lengths never pays for a corpus it would throw away.
type ServedModel struct {
	// Name is the model's CLI/HTTP name.
	Name string
	// Model is the network. Every resolution of a name gets this one
	// value: models are immutable, and a stable value keeps the
	// engine's per-value fingerprint memo hitting.
	Model models.Model
	// Schedule is the per-epoch batching policy.
	Schedule dataset.Schedule
	// Vocab is the named training corpus's vocabulary.
	Vocab int
	// corpora generates the named training and evaluation corpora.
	corpora func(seed int64) (train, eval *dataset.Corpus)
}

// Workload resolves the entry with its named corpora, generated from
// seed, and the default batch and epoch count.
func (s ServedModel) Workload(seed int64) Workload {
	train, eval := s.corpora(seed)
	return s.WorkloadWith(train, eval, seed)
}

// WorkloadWith resolves the entry with the caller's corpora in place of
// the named ones, which are never generated.
func (s ServedModel) WorkloadWith(train, eval *dataset.Corpus, seed int64) Workload {
	return Workload{
		Name:     s.Name,
		Model:    s.Model,
		Train:    train,
		Eval:     eval,
		Schedule: s.Schedule,
		Batch:    DefaultBatch,
		Epochs:   DefaultEpochs,
		Seed:     seed,
	}
}

// CustomCorpus builds the synthetic corpus a request's explicit
// sequence lengths stand for: "custom-<model>", one sample per length.
func (s ServedModel) CustomCorpus(seqLens []int, vocab int) (*dataset.Corpus, error) {
	return dataset.Synthetic("custom-"+s.Name, seqLens, vocab)
}

func libriSpeechCorpora(seed int64) (train, eval *dataset.Corpus) {
	return dataset.LibriSpeech100h(seed), dataset.LibriSpeechDev(seed)
}

func iwsltCorpora(seed int64) (train, eval *dataset.Corpus) {
	return dataset.IWSLT15(seed), dataset.IWSLTTest(seed)
}

// served is the registry of models served online, in wire order.
var served = []ServedModel{
	// DeepSpeech2 on LibriSpeech-100h with SortaGrad.
	{Name: "ds2", Model: models.NewDS2(), Schedule: dataset.DS2Schedule(), Vocab: dataset.LibriSpeechVocab, corpora: libriSpeechCorpora},
	// GNMT on IWSLT'15 with bucket-pool batching.
	{Name: "gnmt", Model: models.NewGNMT(), Schedule: dataset.GNMTSchedule(), Vocab: dataset.IWSLTVocab, corpora: iwsltCorpora},
	// The base Transformer on IWSLT'15-shaped data, used by the Section
	// VII-B extension experiments: attention makes its per-iteration
	// cost super-linear in SL.
	{Name: "transformer", Model: models.NewTransformer(), Schedule: dataset.GNMTSchedule(), Vocab: dataset.IWSLTVocab, corpora: iwsltCorpora},
	// The attention-free LSTM encoder-decoder on IWSLT'15-shaped data:
	// per-iteration cost strictly linear in SL.
	{Name: "seq2seq", Model: models.NewSeq2Seq(), Schedule: dataset.GNMTSchedule(), Vocab: dataset.IWSLTVocab, corpora: iwsltCorpora},
}

// DS2Workload is DeepSpeech2 on LibriSpeech-100h with SortaGrad.
func DS2Workload(seed int64) Workload { return served[0].Workload(seed) }

// GNMTWorkload is GNMT on IWSLT'15 with bucket-pool batching.
func GNMTWorkload(seed int64) Workload { return served[1].Workload(seed) }

// TransformerWorkload is the base Transformer on IWSLT'15-shaped data.
func TransformerWorkload(seed int64) Workload { return served[2].Workload(seed) }

// Seq2SeqWorkload is the attention-free LSTM encoder-decoder on
// IWSLT'15-shaped data.
func Seq2SeqWorkload(seed int64) Workload { return served[3].Workload(seed) }

// CNNWorkload is the fixed-input CNN used for the homogeneous-iteration
// side of the Fig. 3 contrast. The corpus lengths are immaterial (the
// model ignores sequence length); a small corpus keeps the run cheap.
func CNNWorkload(seed int64) Workload {
	lengths := make([]int, 2048)
	for i := range lengths {
		lengths[i] = 1
	}
	corpus, err := dataset.Synthetic("imagenet-like", lengths, 1000)
	if err != nil {
		panic(err) // unreachable: lengths are valid by construction
	}
	return Workload{
		Name:     "cnn",
		Model:    models.NewCNN(),
		Train:    corpus,
		Schedule: dataset.Schedule{FirstEpoch: dataset.OrderShuffled, LaterEpochs: dataset.OrderShuffled},
		Batch:    DefaultBatch,
		Epochs:   1,
		Seed:     seed,
	}
}

// WorkloadByName resolves a workload by its CLI/HTTP name: "ds2",
// "gnmt", "transformer", "seq2seq" or "cnn". The single registry both
// cmd/trainsim and the HTTP service resolve models through.
func WorkloadByName(name string, seed int64) (Workload, error) {
	if name == "cnn" {
		return CNNWorkload(seed), nil
	}
	s, err := LookupServed(name)
	if err != nil {
		return Workload{}, err
	}
	return s.Workload(seed), nil
}

// LookupServed returns the registry entry of a model served online
// (trainsim -serve and the seqpointd endpoints) without generating its
// corpora. The fixed-input CNN is not served: it exists for the Fig. 3
// homogeneity contrast only and has no sequence-length variation.
func LookupServed(name string) (ServedModel, error) {
	for _, s := range served {
		if s.Name == name {
			return s, nil
		}
	}
	if name == "cnn" {
		return ServedModel{}, fmt.Errorf("experiments: model cnn is training/characterization only (serving wants ds2, gnmt, transformer or seq2seq)")
	}
	return ServedModel{}, fmt.Errorf("experiments: unknown model %q (want ds2, gnmt, transformer, seq2seq or cnn)", name)
}

// ServedWorkloadByName resolves a model served online with its named
// corpora: WorkloadByName minus the fixed-input CNN.
func ServedWorkloadByName(name string, seed int64) (Workload, error) {
	s, err := LookupServed(name)
	if err != nil {
		return Workload{}, err
	}
	return s.Workload(seed), nil
}

// Spec converts the workload to a trainer spec.
func (w Workload) Spec() trainer.Spec {
	return trainer.Spec{
		Model:    w.Model,
		Train:    w.Train,
		Eval:     w.Eval,
		Batch:    w.Batch,
		Epochs:   w.Epochs,
		Schedule: w.Schedule,
		Seed:     w.Seed,
		Cluster:  w.Cluster,
	}
}

// Task converts the workload into one sweep-grid cell on cfg.
func (w Workload) Task(cfg gpusim.Config) engine.SweepTask {
	return engine.SweepTask{
		Name:   fmt.Sprintf("%s on %s", w.Name, cfg.Name),
		Spec:   w.Spec(),
		Config: cfg,
	}
}

// Lab memoizes simulated training runs per (workload, hardware config):
// the expensive inputs every experiment shares. It is a thin wrapper
// over the engine's Sweep — the engine dedupes and parallelizes the
// underlying profiling, the lab additionally memoizes whole *Run
// aggregates. It is safe for concurrent use, though two callers that
// miss on the same run at once both simulate it.
type Lab struct {
	eng  *engine.Engine
	mu   sync.Mutex
	runs map[string]*trainer.Run
}

// NewLab returns a lab backed by the process-wide shared engine, so
// separate labs (and direct trainer users) reuse one profile cache.
func NewLab() *Lab {
	return NewLabWith(engine.Shared())
}

// NewLabWith returns a lab backed by the given engine.
func NewLabWith(eng *engine.Engine) *Lab {
	return &Lab{eng: eng, runs: make(map[string]*trainer.Run)}
}

// Engine returns the engine backing this lab.
func (l *Lab) Engine() *engine.Engine { return l.eng }

func runKey(w Workload, cfg gpusim.Config) string {
	return fmt.Sprintf("%s|%+v|%+v|%s|%d|%d|%d|%d",
		w.Name, cfg, w.Cluster.Normalized(), w.Train.Name, w.Train.Size(), w.Batch, w.Epochs, w.Seed)
}

// Run simulates (or returns the cached) training run of w on cfg.
func (l *Lab) Run(w Workload, cfg gpusim.Config) (*trainer.Run, error) {
	runs, err := l.RunAll(w, []gpusim.Config{cfg})
	if err != nil {
		return nil, err
	}
	return runs[cfg.Name], nil
}

// RunAll simulates w on every config and returns the runs keyed by
// config name. Uncached configs are swept through the engine with its
// configured parallelism; every successful run is cached, and the
// first failure in config order is returned. Failures are not cached,
// so a later call retries them.
func (l *Lab) RunAll(w Workload, cfgs []gpusim.Config) (map[string]*trainer.Run, error) {
	out := make(map[string]*trainer.Run, len(cfgs))
	var tasks []engine.SweepTask
	l.mu.Lock()
	for _, cfg := range cfgs {
		if run, ok := l.runs[runKey(w, cfg)]; ok {
			out[cfg.Name] = run
		} else {
			tasks = append(tasks, w.Task(cfg))
		}
	}
	l.mu.Unlock()
	if len(tasks) == 0 {
		return out, nil
	}

	results := l.eng.Sweep(context.Background(), tasks, 0)
	var firstErr error
	l.mu.Lock()
	for _, res := range results {
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: simulating %s on %s: %w", w.Name, res.Task.Config.Name, res.Err)
			}
			continue
		}
		l.runs[runKey(w, res.Task.Config)] = res.Run
		out[res.Task.Config.Name] = res.Run
	}
	l.mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// SLRecords extracts the SeqPoint input (per-unique-SL frequency and
// iteration runtime) from epoch `epoch` of a run.
func SLRecords(run *trainer.Run, epoch int) ([]core.SLRecord, error) {
	sum, err := run.EpochSummary(epoch)
	if err != nil {
		return nil, err
	}
	recs := make([]core.SLRecord, len(sum))
	for i, s := range sum {
		recs[i] = core.SLRecord{SeqLen: s.SeqLen, Freq: s.Count, Stat: s.IterTimeUS}
	}
	return recs, nil
}

// SelectOptions are the selection parameters used throughout the
// evaluation: the paper's defaults with the error threshold tightened to
// 0.1%, which lands the auto-k loop at SeqPoint counts comparable to the
// paper's (8 for DS2, 15 for GNMT).
func SelectOptions() core.Options {
	return core.Options{ErrorThresholdPct: 0.1}
}
