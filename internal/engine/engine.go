// Package engine is the concurrent simulation engine underneath the
// trainer and the experiment suite. It owns two things:
//
//   - a sharded, concurrency-safe profile cache keyed by (model
//     fingerprint, hardware config, batch, phase, sequence length) with
//     singleflight deduplication, so each unique iteration profile is
//     priced exactly once per process — across runs, workloads and
//     goroutines. A profile depends on nothing but its key (the paper's
//     observation 4/5: same padded SL ⇒ identical work), which is what
//     makes cross-run sharing sound.
//   - a bounded worker pool that fans out the unique-SL profiling of an
//     epoch plan, and above it a Sweep API that runs a (workload ×
//     config) grid with configurable parallelism and context
//     cancellation.
//
// Determinism is a hard constraint: per-profile op pricing stays in op
// order (each profile is computed whole by one goroutine) and run
// aggregation stays in plan order (in the trainer), so results at any
// parallelism are byte-identical to the sequential path.
//
// Importing this package registers the shared engine as the trainer's
// default ProfileSource, so trainer.Simulate reuses profiles
// process-wide unless a spec overrides the source.
package engine

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
	"seqpoint/internal/tensor"
	"seqpoint/internal/trainer"
)

// Phase distinguishes the two profile kinds a training run needs.
type Phase uint8

const (
	// PhaseTrain is a full training iteration (forward + backward +
	// optimizer).
	PhaseTrain Phase = iota
	// PhaseEval is a forward-only evaluation pass.
	PhaseEval
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseTrain:
		return "train"
	case PhaseEval:
		return "eval"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Key identifies one cached profile. Config and Cluster participate as
// values (flat comparable structs), so two configurations differing in
// any field — including the display name — occupy distinct entries.
// Cluster is always stored normalized (see ClusterConfig.Normalized),
// so every single-GPU spelling shares one entry.
type Key struct {
	// Model is the structural fingerprint of the network (see
	// Fingerprint).
	Model uint64
	// Config is the per-GPU hardware configuration.
	Config gpusim.Config
	// Cluster is the normalized data-parallel cluster configuration.
	Cluster gpusim.ClusterConfig
	// Batch is the global minibatch size.
	Batch int
	// Phase is the profile kind.
	Phase Phase
	// SeqLen is the padded sequence length.
	SeqLen int
}

// Fingerprint returns a structural identity for a model: a hash over
// the op streams it emits at two probe shapes, train and eval. Models
// that build identical op sequences (kind, shape signature, cost
// quantities) are interchangeable for profiling and may share cache
// entries; models differing anywhere — including two custom models
// that share a Name() — never collide.
//
// The hash covers every launch in launch order (tensor.Flatten of the
// model's blocks), the same bytes a flat op stream was hashed from
// before models emitted blocks; so fingerprints, cache keys and
// snapshot entries are unchanged by the block representation. The
// flattening runs once per model value (see Engine.fingerprint).
func Fingerprint(m models.Model) uint64 {
	h := fnv.New64a()
	io.WriteString(h, m.Name())
	var buf [8]byte
	hashF := func(f float64) {
		v := math.Float64bits(f)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	hashOps := func(blocks []tensor.Block) {
		for _, op := range tensor.Flatten(blocks) {
			io.WriteString(h, op.Signature())
			hashF(op.FLOPs())
			hashF(op.BytesRead())
			hashF(op.BytesWritten())
		}
	}
	for _, probe := range [][2]int{{2, 3}, {2, 7}} {
		hashOps(m.IterationBlocks(probe[0], probe[1]))
		io.WriteString(h, "|eval|")
		hashOps(m.EvalBlocks(probe[0], probe[1]))
		io.WriteString(h, "|probe|")
	}
	return h.Sum64()
}

// Stats is a snapshot of the engine's cache counters.
type Stats struct {
	// Hits counts requests served from a completed cache entry.
	Hits int64 `json:"hits"`
	// Misses counts profiles actually computed (one per unique key).
	Misses int64 `json:"misses"`
	// Dedups counts requests that arrived while the same key was being
	// computed and waited for it instead of recomputing.
	Dedups int64 `json:"dedups"`
	// Entries is the number of profiles currently cached.
	Entries int64 `json:"entries"`
}

const numShards = 32

type shard struct {
	mu sync.Mutex
	m  map[Key]*entry
}

// entry is one singleflight cache slot: the first requester computes,
// everyone else waits on done.
type entry struct {
	done chan struct{}
	p    profiler.IterationProfile
	err  error
}

// Engine is a concurrent profiling engine with a process-lifetime
// cache. The zero value is not usable; call New or Shared. An Engine
// is safe for concurrent use.
type Engine struct {
	shards      [numShards]shard
	fps         sync.Map // models.Model -> uint64, comparable models only
	fpCount     atomic.Int64
	parallelism atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	dedups      atomic.Int64

	// busy counts in-flight profile computations; acquire/release gate
	// them so nested fan-out (Sweep workers each fanning out ProfileSLs)
	// still respects Parallelism() engine-wide.
	busyMu   sync.Mutex
	busyCond *sync.Cond
	busy     int
}

// maxFingerprintMemo bounds the per-instance fingerprint memo so a
// process that keeps constructing fresh model values cannot grow (and
// pin) the map without bound; past the cap, fingerprints are simply
// recomputed.
const maxFingerprintMemo = 1024

// New returns an empty engine whose worker pools default to
// GOMAXPROCS-wide.
func New() *Engine {
	e := &Engine{}
	e.busyCond = sync.NewCond(&e.busyMu)
	for i := range e.shards {
		e.shards[i].m = make(map[Key]*entry)
	}
	return e
}

var shared = New()

// Shared returns the process-wide engine: the one the trainer defaults
// to and the one NewLab-built experiment suites share, so profiles are
// reused across every run in the process.
func Shared() *Engine { return shared }

func init() {
	trainer.SetDefaultProfileSource(shared)
}

// SetParallelism bounds the engine's worker pools to n concurrent
// profiling goroutines; n <= 0 restores the GOMAXPROCS default.
// Parallelism never affects results, only wall-clock time.
func (e *Engine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.parallelism.Store(int64(n))
	e.busyCond.Broadcast() // a raised limit may unblock waiters
}

// acquire blocks until a profiling slot is free. Slots are held only
// for the duration of one profile computation (a leaf that never
// re-enters the engine), so there is no hold-and-wait cycle.
func (e *Engine) acquire() {
	e.busyMu.Lock()
	for e.busy >= e.Parallelism() {
		e.busyCond.Wait()
	}
	e.busy++
	e.busyMu.Unlock()
}

func (e *Engine) release() {
	e.busyMu.Lock()
	e.busy--
	e.busyMu.Unlock()
	e.busyCond.Signal()
}

// Parallelism returns the effective worker-pool width.
func (e *Engine) Parallelism() int {
	if n := e.parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Hits:   e.hits.Load(),
		Misses: e.misses.Load(),
		Dedups: e.dedups.Load(),
	}
	for i := range e.shards {
		e.shards[i].mu.Lock()
		s.Entries += int64(len(e.shards[i].m))
		e.shards[i].mu.Unlock()
	}
	return s
}

// fingerprint memoizes Fingerprint per model instance when the model's
// dynamic type is comparable (all the package's models are pointers);
// non-comparable user types are re-fingerprinted per call.
func (e *Engine) fingerprint(m models.Model) uint64 {
	memoizable := reflect.TypeOf(m).Comparable()
	if memoizable {
		if v, ok := e.fps.Load(m); ok {
			return v.(uint64)
		}
	}
	fp := Fingerprint(m)
	if memoizable && e.fpCount.Load() < maxFingerprintMemo {
		if _, loaded := e.fps.LoadOrStore(m, fp); !loaded {
			e.fpCount.Add(1)
		}
	}
	return fp
}

func (e *Engine) shardFor(k Key) *shard {
	h := k.Model
	h = h*31 + uint64(k.SeqLen)
	h = h*31 + uint64(k.Batch)
	h = h*31 + uint64(k.Phase)
	for _, c := range k.Config.Name {
		h = h*31 + uint64(c)
	}
	h = h*31 + uint64(k.Config.NumCUs)
	h = h*31 + uint64(k.Cluster.GPUs)
	return &e.shards[h%numShards]
}

// Profile returns the single-GPU iteration profile for (hw, m, batch,
// seqLen, phase), computing it at most once per unique key across the
// whole process. Concurrent requests for an in-flight key wait for the
// single computation instead of duplicating it.
func (e *Engine) Profile(hw gpusim.Config, m models.Model, batch, seqLen int, phase Phase) (profiler.IterationProfile, error) {
	return e.ProfileCluster(hw, gpusim.SingleGPU(), m, batch, seqLen, phase)
}

// ProfileCluster is Profile on a data-parallel cluster of hw replicas:
// the cached unit becomes the whole training step (shard compute plus
// exposed all-reduce), keyed additionally by the normalized cluster
// configuration. The cluster is validated before it enters the cache
// key: a key holding a NaN field would never compare equal to itself,
// silently leaking one dead singleflight entry per request.
func (e *Engine) ProfileCluster(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch, seqLen int, phase Phase) (profiler.IterationProfile, error) {
	cl = cl.Normalized()
	if err := cl.Validate(); err != nil {
		return profiler.IterationProfile{}, err
	}
	k := Key{Model: e.fingerprint(m), Config: hw, Cluster: cl, Batch: batch, Phase: phase, SeqLen: seqLen}
	return e.profileKeyed(k, m)
}

// profileKeyed is Profile with the key already built, letting bulk
// callers fingerprint the model once instead of once per SL.
func (e *Engine) profileKeyed(k Key, m models.Model) (profiler.IterationProfile, error) {
	s := e.shardFor(k)

	s.mu.Lock()
	if en, ok := s.m[k]; ok {
		s.mu.Unlock()
		select {
		case <-en.done:
			e.hits.Add(1)
		default:
			e.dedups.Add(1)
			<-en.done
		}
		return en.p, en.err
	}
	en := &entry{done: make(chan struct{})}
	s.m[k] = en
	s.mu.Unlock()

	e.misses.Add(1)
	e.acquire()
	en.p, en.err = computeProfile(k.Config, k.Cluster, m, k.Batch, k.SeqLen, k.Phase)
	e.release()
	close(en.done)
	if en.err != nil {
		// Errors are not cached: a failed entry would pin e.g. a
		// transient invalid-config mistake forever. Deterministic
		// failures simply recompute cheaply.
		s.mu.Lock()
		delete(s.m, k)
		s.mu.Unlock()
	}
	return en.p, en.err
}

func computeProfile(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch, seqLen int, phase Phase) (profiler.IterationProfile, error) {
	sim, err := gpusim.New(hw)
	if err != nil {
		return profiler.IterationProfile{}, err
	}
	if phase == PhaseEval {
		return profiler.ProfileEvalStep(sim, cl, m, batch, seqLen)
	}
	return profiler.ProfileStep(sim, cl, m, batch, seqLen)
}

// ProfileSLs profiles every requested sequence length through the
// cache. It answers completed entries inline and fans only the rest
// out over the engine's bounded worker pool, so a warm lookup starts
// no goroutine. The returned map is independent of pool width and
// request order.
func (e *Engine) ProfileSLs(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int, phase Phase) (map[int]profiler.IterationProfile, error) {
	cl = cl.Normalized()
	// Reject invalid clusters before any Key is built: NaN fields in a
	// map key never match themselves and would leak cache entries.
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	key := Key{Model: e.fingerprint(m), Config: hw, Cluster: cl, Batch: batch, Phase: phase}
	// out doubles as the seen set: a pending SL holds a placeholder
	// until its lookup returns.
	out := make(map[int]profiler.IterationProfile, len(seqLens))
	var pending []int
	for _, sl := range seqLens {
		if _, seen := out[sl]; seen {
			continue
		}
		key.SeqLen = sl
		p, ok := e.cached(key)
		if !ok {
			pending = append(pending, sl)
		}
		out[sl] = p
	}
	if len(pending) == 0 {
		return out, nil
	}
	profiles := make([]profiler.IterationProfile, len(pending))
	errs := make([]error, len(pending))
	forEach(len(pending), e.Parallelism(), func(i int) {
		k := key
		k.SeqLen = pending[i]
		profiles[i], errs[i] = e.profileKeyed(k, m)
	})
	for i, sl := range pending {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[sl] = profiles[i]
	}
	return out, nil
}

// cached returns k's profile when its entry has completed without an
// error, counting a hit. Any other key is left for profileKeyed, which
// counts it.
func (e *Engine) cached(k Key) (profiler.IterationProfile, bool) {
	s := e.shardFor(k)
	s.mu.Lock()
	en, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		select {
		case <-en.done:
			if en.err == nil {
				e.hits.Add(1)
				return en.p, true
			}
		default:
		}
	}
	return profiler.IterationProfile{}, false
}

// EvalTimeUS returns the single-GPU eval-pass time of (hw, m, batch,
// seqLen): the TimeUS EvalProfiles reports for that one SL, through the
// same cache and counters, without a map or a fan-out. A serving price
// table fills a slot with it.
func (e *Engine) EvalTimeUS(hw gpusim.Config, m models.Model, batch, seqLen int) (float64, error) {
	p, err := e.profileKeyed(Key{Model: e.fingerprint(m), Config: hw, Cluster: gpusim.SingleGPU(), Batch: batch, Phase: PhaseEval, SeqLen: seqLen}, m)
	return p.TimeUS, err
}

// TrainProfiles implements trainer.ProfileSource.
func (e *Engine) TrainProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	return e.ProfileSLs(hw, cl, m, batch, seqLens, PhaseTrain)
}

// EvalProfiles implements trainer.ProfileSource.
func (e *Engine) EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	return e.ProfileSLs(hw, cl, m, batch, seqLens, PhaseEval)
}

// Simulate runs a full training simulation whose profiling goes
// through this engine (unless the spec pins its own source).
func (e *Engine) Simulate(spec trainer.Spec, hw gpusim.Config) (*trainer.Run, error) {
	if spec.Profiles == nil {
		spec.Profiles = e
	}
	return trainer.Simulate(spec, hw)
}
