package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/nn"
	"seqpoint/internal/profiler"
	"seqpoint/internal/tensor"
	"seqpoint/internal/trainer"
)

// testCorpus returns a small corpus with a handful of distinct lengths
// so specs stay fast while exercising multiple cache keys.
func testCorpus(t testing.TB, name string, seed int64) *dataset.Corpus {
	t.Helper()
	lengths := make([]int, 96)
	for i := range lengths {
		lengths[i] = 20 + 5*(i%8) + int(seed)
	}
	c, err := dataset.Synthetic(name, lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testSpec is a small GNMT training spec with an eval phase.
func testSpec(t testing.TB, seed int64) trainer.Spec {
	t.Helper()
	return trainer.Spec{
		Model:    models.NewGNMT(),
		Train:    testCorpus(t, "train", seed),
		Eval:     testCorpus(t, "eval", seed+1),
		Batch:    16,
		Epochs:   2,
		Schedule: dataset.GNMTSchedule(),
		Seed:     seed,
	}
}

func TestProfileMatchesDirect(t *testing.T) {
	e := New()
	m := models.NewGNMT()
	cfg := gpusim.VegaFE()
	sim, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	got, err := e.Profile(cfg, m, 16, 40, PhaseTrain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := profiler.ProfileIteration(sim, m, 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached train profile differs from direct computation: got %.6f us, want %.6f us",
			got.TimeUS, want.TimeUS)
	}

	gotEval, err := e.Profile(cfg, m, 16, 40, PhaseEval)
	if err != nil {
		t.Fatal(err)
	}
	wantEval, err := profiler.ProfileEval(sim, m, 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEval, wantEval) {
		t.Error("cached eval profile differs from direct computation")
	}
	if gotEval.TimeUS >= got.TimeUS {
		t.Error("eval (forward-only) profile should be cheaper than a training iteration")
	}
}

func TestConcurrentSameKeyComputesOnce(t *testing.T) {
	e := New()
	m := models.NewGNMT()
	cfg := gpusim.VegaFE()

	const goroutines = 24
	profiles := make([]profiler.IterationProfile, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			profiles[g], errs[g] = e.Profile(cfg, m, 16, 55, PhaseTrain)
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(profiles[g], profiles[0]) {
			t.Fatalf("goroutine %d observed a different profile", g)
		}
	}

	st := e.Stats()
	if st.Misses != 1 {
		t.Errorf("same-key requests computed %d profiles, want exactly 1", st.Misses)
	}
	if st.Hits+st.Dedups != goroutines-1 {
		t.Errorf("hits(%d) + dedups(%d) = %d, want %d",
			st.Hits, st.Dedups, st.Hits+st.Dedups, goroutines-1)
	}
	if st.Entries != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Entries)
	}
}

func TestDistinctKeysNeverCollide(t *testing.T) {
	e := New()
	cfgs := gpusim.TableII()
	gnmt, ds2 := models.NewGNMT(), models.NewDS2()

	// Every tuple differs from the first in exactly one component.
	type req struct {
		m     models.Model
		cfg   gpusim.Config
		batch int
		sl    int
		phase Phase
	}
	reqs := []req{
		{gnmt, cfgs[0], 16, 40, PhaseTrain},
		{ds2, cfgs[0], 16, 40, PhaseTrain},  // model differs
		{gnmt, cfgs[1], 16, 40, PhaseTrain}, // config differs
		{gnmt, cfgs[0], 32, 40, PhaseTrain}, // batch differs
		{gnmt, cfgs[0], 16, 41, PhaseTrain}, // SL differs
		{gnmt, cfgs[0], 16, 40, PhaseEval},  // phase differs
	}
	for _, r := range reqs {
		if _, err := e.Profile(r.cfg, r.m, r.batch, r.sl, r.phase); err != nil {
			t.Fatal(err)
		}
	}

	st := e.Stats()
	if st.Misses != int64(len(reqs)) || st.Entries != int64(len(reqs)) {
		t.Errorf("distinct keys collided: %d misses, %d entries, want %d of each",
			st.Misses, st.Entries, len(reqs))
	}
	if st.Hits != 0 {
		t.Errorf("unexpected cache hits: %d", st.Hits)
	}

	// Each cached entry must still match its own direct computation.
	for i, r := range reqs {
		p, err := e.Profile(r.cfg, r.m, r.batch, r.sl, r.phase)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trainer.DirectProfileSource().TrainProfiles(r.cfg, gpusim.SingleGPU(), r.m, r.batch, []int{r.sl})
		if r.phase == PhaseEval {
			want, err = trainer.DirectProfileSource().EvalProfiles(r.cfg, gpusim.SingleGPU(), r.m, r.batch, []int{r.sl})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want[r.sl]) {
			t.Errorf("request %d: cached profile differs from direct computation", i)
		}
	}
}

func TestFingerprintDistinguishesSameNamedModels(t *testing.T) {
	build := func(width int) models.Model {
		m, err := models.NewCustom("same-name", 1_000_000,
			func(batch, seqLen int) nn.Activation {
				return nn.Activation{Batch: batch, Time: seqLen, Feat: 64}
			},
			func(seqLen int) []nn.Layer {
				return []nn.Layer{nn.NewDense("d", width, true)}
			})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(128), build(256)
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("structurally different models with the same name share a fingerprint")
	}
	if Fingerprint(a) != Fingerprint(build(128)) {
		t.Error("structurally identical models have different fingerprints")
	}
}

func TestSimulateByteIdenticalAcrossParallelism(t *testing.T) {
	spec := testSpec(t, 7)
	cfg := gpusim.VegaFE()

	// The engine-free sequential path is the reference.
	seqSpec := spec
	seqSpec.Profiles = trainer.DirectProfileSource()
	want, err := trainer.Simulate(seqSpec, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 8} {
		e := New()
		e.SetParallelism(par)
		got, err := e.Simulate(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalUS() != want.TotalUS() {
			t.Errorf("parallelism %d: TotalUS %.9f != sequential %.9f", par, got.TotalUS(), want.TotalUS())
		}
		if got.TrainUS != want.TrainUS || got.EvalUS != want.EvalUS || got.AutotuneUS != want.AutotuneUS {
			t.Errorf("parallelism %d: component times differ from sequential path", par)
		}
		if !reflect.DeepEqual(got.BySL, want.BySL) {
			t.Errorf("parallelism %d: BySL differs from sequential path", par)
		}
		if got.Iterations != want.Iterations || got.Samples != want.Samples {
			t.Errorf("parallelism %d: iteration accounting differs", par)
		}
	}
}

func TestSweepDeterministicAndOrdered(t *testing.T) {
	specA := testSpec(t, 3)
	specB := testSpec(t, 4)
	specB.Model = models.NewSeq2Seq()
	var tasks []SweepTask
	for _, cfg := range gpusim.TableII()[:3] {
		tasks = append(tasks,
			SweepTask{Name: "gnmt on " + cfg.Name, Spec: specA, Config: cfg},
			SweepTask{Name: "seq2seq on " + cfg.Name, Spec: specB, Config: cfg})
	}

	e1 := New()
	res1 := e1.Sweep(context.Background(), tasks, 1)
	e8 := New()
	res8 := e8.Sweep(context.Background(), tasks, 8)

	if len(res1) != len(tasks) || len(res8) != len(tasks) {
		t.Fatalf("sweep returned %d/%d results, want %d", len(res1), len(res8), len(tasks))
	}
	for i := range tasks {
		if res1[i].Task.Name != tasks[i].Name || res8[i].Task.Name != tasks[i].Name {
			t.Fatalf("result %d out of task order", i)
		}
		if res1[i].Err != nil || res8[i].Err != nil {
			t.Fatal(res1[i].Err, res8[i].Err)
		}
		if res1[i].Run.TotalUS() != res8[i].Run.TotalUS() {
			t.Errorf("task %q: parallel sweep TotalUS %.9f != sequential %.9f",
				tasks[i].Name, res8[i].Run.TotalUS(), res1[i].Run.TotalUS())
		}
		if !reflect.DeepEqual(res1[i].Run.BySL, res8[i].Run.BySL) {
			t.Errorf("task %q: parallel sweep BySL differs from sequential", tasks[i].Name)
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []SweepTask{
		{Name: "never-runs", Spec: testSpec(t, 1), Config: gpusim.VegaFE()},
	}
	res := New().Sweep(ctx, tasks, 2)
	if res[0].Err != context.Canceled {
		t.Errorf("cancelled sweep task error = %v, want context.Canceled", res[0].Err)
	}
	if res[0].Run != nil {
		t.Error("cancelled task still produced a run")
	}
}

// TestReuseAcrossRunsAndConfigs is the PR's reuse acceptance criterion:
// after simulating a workload on two configs, re-running either config
// performs zero new profile computations.
func TestReuseAcrossRunsAndConfigs(t *testing.T) {
	e := New()
	spec := testSpec(t, 5)
	cfgs := gpusim.TableII()

	first, err := e.Simulate(spec, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Simulate(spec, cfgs[1]); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses == 0 {
		t.Fatal("expected profile computations on first runs")
	}

	again, err := e.Simulate(spec, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("re-run computed %d new profiles, want 0", st2.Misses-st.Misses)
	}
	if st2.Hits <= st.Hits {
		t.Error("re-run should be served from the cache")
	}
	if again.TotalUS() != first.TotalUS() || !reflect.DeepEqual(again.BySL, first.BySL) {
		t.Error("re-run results differ from the first run")
	}

	// A different batch size is new work, not a cache hit.
	spec2 := spec
	spec2.Batch = spec.Batch * 2
	if _, err := e.Simulate(spec2, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Misses == st2.Misses {
		t.Error("different batch size must not be served from the old entries")
	}
}

func TestSharedEngineIsTrainerDefault(t *testing.T) {
	if trainer.DefaultProfileSource() != trainer.ProfileSource(Shared()) {
		t.Error("importing engine should register the shared engine as the trainer default")
	}
}

func TestSetParallelismBounds(t *testing.T) {
	e := New()
	if e.Parallelism() <= 0 {
		t.Error("default parallelism must be positive")
	}
	e.SetParallelism(3)
	if e.Parallelism() != 3 {
		t.Errorf("Parallelism() = %d, want 3", e.Parallelism())
	}
	e.SetParallelism(0)
	if e.Parallelism() <= 0 {
		t.Error("reset parallelism must fall back to a positive default")
	}
}

func TestProfileSLsDedupesInput(t *testing.T) {
	e := New()
	m := models.NewGNMT()
	cfg := gpusim.VegaFE()
	sls := []int{30, 31, 30, 32, 31, 30}
	out, err := e.ProfileSLs(cfg, gpusim.SingleGPU(), m, 16, sls, PhaseTrain)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("got %d profiles, want 3", len(out))
	}
	if st := e.Stats(); st.Misses != 3 {
		t.Errorf("duplicate SLs recomputed: %d misses, want 3", st.Misses)
	}
	for _, sl := range []int{30, 31, 32} {
		if out[sl].SeqLen != sl {
			t.Errorf("profile for SL %d carries SeqLen %d", sl, out[sl].SeqLen)
		}
	}
}

func TestPhaseString(t *testing.T) {
	for phase, want := range map[Phase]string{PhaseTrain: "train", PhaseEval: "eval", Phase(9): "phase(9)"} {
		if got := phase.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", phase, got, want)
		}
	}
}

func ExampleEngine_Stats() {
	e := New()
	cfg := gpusim.VegaFE()
	m := models.NewGNMT()
	e.Profile(cfg, m, 16, 40, PhaseTrain)
	e.Profile(cfg, m, 16, 40, PhaseTrain)
	st := e.Stats()
	fmt.Printf("misses=%d hits=%d entries=%d\n", st.Misses, st.Hits, st.Entries)
	// Output: misses=1 hits=1 entries=1
}

// TestProfileClusterRejectsInvalidBeforeKeying: an invalid cluster
// (here a NaN bandwidth) must error out before a cache Key is built —
// a NaN field in a map key never compares equal to itself, so it would
// leak one dead singleflight entry per request.
func TestProfileClusterRejectsInvalidBeforeKeying(t *testing.T) {
	e := New()
	bad := gpusim.ClusterConfig{GPUs: 4, Topology: gpusim.TopologyRing, LinkGBps: math.NaN()}
	for i := 0; i < 3; i++ {
		if _, err := e.ProfileCluster(gpusim.VegaFE(), bad, models.NewGNMT(), 16, 20, PhaseTrain); err == nil {
			t.Fatal("invalid cluster accepted")
		}
		if _, err := e.ProfileSLs(gpusim.VegaFE(), bad, models.NewGNMT(), 16, []int{20, 21}, PhaseTrain); err == nil {
			t.Fatal("invalid cluster accepted by ProfileSLs")
		}
	}
	if st := e.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("invalid cluster leaked cache state: %+v", st)
	}
}

// TestEvalTimeUSMatchesEvalProfiles holds the single-key lookup to the
// bulk one: on a miss and on a hit, at several batches and SLs, it
// returns the TimeUS EvalProfiles reports.
func TestEvalTimeUSMatchesEvalProfiles(t *testing.T) {
	cfg := gpusim.VegaFE()
	m := models.NewGNMT()
	ref := New()
	for _, batch := range []int{1, 4, 16} {
		for _, sl := range []int{1, 20, 57} {
			want, err := ref.EvalProfiles(cfg, gpusim.SingleGPU(), m, batch, []int{sl})
			if err != nil {
				t.Fatal(err)
			}
			e := New()
			for _, lookup := range []string{"miss", "hit"} {
				got, err := e.EvalTimeUS(cfg, m, batch, sl)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[sl].TimeUS {
					t.Errorf("batch %d SL %d, %s: EvalTimeUS %v, EvalProfiles %v", batch, sl, lookup, got, want[sl].TimeUS)
				}
			}
			if st := e.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
				t.Errorf("batch %d SL %d: stats %+v, want one miss, one hit, one entry", batch, sl, st)
			}
		}
	}
}

// gatedModel is GNMT whose eval pass at one SL waits for gate to close,
// after closing entered: a test holds a cold computation in flight to
// make a concurrent request for the same key a dedup.
type gatedModel struct {
	models.Model
	sl      int
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedModel) EvalBlocks(batch, seqLen int) []tensor.Block {
	if seqLen == g.sl {
		close(g.entered)
		<-g.gate
	}
	return g.Model.EvalBlocks(batch, seqLen)
}

// TestLookupCountsMatchBulkOnly scripts bulk and single-key lookups —
// misses, hits, a repeated SL, both phases, and two goroutines asking
// for one cold key — and requires the counters the engine gave when a
// single-key lookup was a one-SL EvalProfiles call and every bulk SL
// went through the worker pool: answering hits inline and pricing one
// key alone change no count.
func TestLookupCountsMatchBulkOnly(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := New()
		e.SetParallelism(par)
		cfg := gpusim.VegaFE()
		gm := &gatedModel{Model: models.NewGNMT(), sl: 30, entered: make(chan struct{}), gate: make(chan struct{})}
		bulk := func(batch int, sls []int, phase Phase) {
			t.Helper()
			if _, err := e.ProfileSLs(cfg, gpusim.SingleGPU(), gm, batch, sls, phase); err != nil {
				t.Error(err)
			}
		}
		one := func(batch, sl int) {
			t.Helper()
			if _, err := e.EvalTimeUS(cfg, gm, batch, sl); err != nil {
				t.Error(err)
			}
		}
		bulk(4, []int{20, 21, 20, 22}, PhaseEval) // 3 misses
		one(4, 21)                                // hit
		one(4, 23)                                // miss
		bulk(4, []int{23, 21, 24, 24}, PhaseEval) // 2 hits, 1 miss
		one(4, 24)                                // hit
		one(4, 24)                                // hit
		bulk(4, []int{20, 21, 22}, PhaseTrain)    // 3 misses
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); one(8, 30) }() // miss, held in flight
		<-gm.entered
		go func() { defer wg.Done(); bulk(8, []int{30, 20}, PhaseEval) }() // dedup, miss
		for deadline := time.Now().Add(10 * time.Second); e.Stats().Dedups == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(gm.gate)
				wg.Wait()
				t.Fatalf("parallelism %d: the second request for the in-flight key never waited on it: %+v", par, e.Stats())
			}
		}
		close(gm.gate)
		wg.Wait()
		// Measured with the engine before EvalTimeUS existed, each
		// single-key lookup made as EvalProfiles with one SL.
		want := Stats{Hits: 5, Misses: 10, Dedups: 1, Entries: 10}
		if got := e.Stats(); got != want {
			t.Errorf("parallelism %d: stats %+v, want %+v", par, got, want)
		}
	}
}
