package serving

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
	"seqpoint/internal/workload"
)

// stubSource is a hermetic profile source: one batch at sequence
// length sl takes sl*100 µs regardless of batch size, so timelines are
// hand-computable.
type stubSource struct{ calls int }

func (s *stubSource) TrainProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	return s.EvalProfiles(hw, cl, m, batch, seqLens)
}

func (s *stubSource) EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	s.calls++
	out := make(map[int]profiler.IterationProfile, len(seqLens))
	for _, sl := range seqLens {
		out[sl] = profiler.IterationProfile{SeqLen: sl, Batch: batch, TimeUS: float64(sl) * 100}
	}
	return out, nil
}

func replay(t *testing.T, arrivals []float64, sls []int) Trace {
	t.Helper()
	tr, err := workload.ReplayTrace("test", arrivals, sls)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func simulate(t *testing.T, tr Trace, p Policy) *Result {
	t.Helper()
	res, err := Simulate(Spec{
		Model:    models.NewGNMT(),
		Trace:    tr,
		Policy:   p,
		Profiles: &stubSource{},
	}, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPoissonTraceDeterministicAndValid(t *testing.T) {
	c := dataset.IWSLT15(1)
	a, err := PoissonTrace(c, 256, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonTrace(c, 256, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different traces")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated trace invalid: %v", err)
	}
	if len(a.Requests) != 256 {
		t.Errorf("trace has %d requests, want 256", len(a.Requests))
	}
	other, err := PoissonTrace(c, 256, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Requests, other.Requests) {
		t.Error("different seeds produced identical traces")
	}
	// Mean inter-arrival should be near 1/rate (20ms at 50 rps).
	meanIA := a.Requests[len(a.Requests)-1].ArrivalUS / float64(len(a.Requests))
	if meanIA < 10e3 || meanIA > 40e3 {
		t.Errorf("mean inter-arrival %v µs implausible for 50 rps", meanIA)
	}
}

func TestPoissonTraceErrors(t *testing.T) {
	c := dataset.IWSLT15(1)
	if _, err := PoissonTrace(nil, 10, 1, 1); err == nil {
		t.Error("nil corpus should error")
	}
	if _, err := PoissonTrace(c, 0, 1, 1); err == nil {
		t.Error("zero requests should error")
	}
	if _, err := PoissonTrace(c, 10, 0, 1); err == nil {
		t.Error("zero rate should error")
	}
}

func TestReplayTraceValidation(t *testing.T) {
	if _, err := workload.ReplayTrace("bad", []float64{0, 1}, []int{5}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := workload.ReplayTrace("bad", []float64{10, 5}, []int{5, 5}); err == nil {
		t.Error("decreasing arrivals should error")
	}
	if _, err := workload.ReplayTrace("bad", []float64{0}, []int{0}); err == nil {
		t.Error("non-positive SL should error")
	}
	if _, err := workload.ReplayTrace("bad", nil, nil); err == nil {
		t.Error("empty trace should error")
	}
}

// TestFixedBatchTimeline checks the hand-computed event timeline of
// the fixed policy: batch formation waits for a full batch, a partial
// batch drains the trace.
func TestFixedBatchTimeline(t *testing.T) {
	tr := replay(t, []float64{0, 50, 60}, []int{2, 4, 1})
	p, err := NewFixedBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, tr, p)

	if res.Batches != 2 {
		t.Fatalf("batches = %d, want 2", res.Batches)
	}
	// Batch 1: requests 0+1 dispatch at t=50 (second arrival), padded
	// SL 4 → 400µs → done at 450. Batch 2: request 2 alone (trace
	// drained), starts at 450, SL 1 → 100µs → done at 550.
	want := []RequestMetric{
		{ID: 0, SeqLen: 2, ArrivalUS: 0, StartUS: 50, DoneUS: 450, BatchSize: 2, PaddedSL: 4},
		{ID: 1, SeqLen: 4, ArrivalUS: 50, StartUS: 50, DoneUS: 450, BatchSize: 2, PaddedSL: 4},
		{ID: 2, SeqLen: 1, ArrivalUS: 60, StartUS: 450, DoneUS: 550, BatchSize: 1, PaddedSL: 1},
	}
	if !reflect.DeepEqual(res.Requests, want) {
		t.Errorf("timeline = %+v,\nwant %+v", res.Requests, want)
	}
	if res.BusyUS != 500 || res.MakespanUS != 550 {
		t.Errorf("busy/makespan = %v/%v, want 500/550", res.BusyUS, res.MakespanUS)
	}
	s := res.Summary()
	if s.P50LatencyUS != 450 || s.P99LatencyUS != 490 {
		t.Errorf("p50/p99 = %v/%v, want 450/490", s.P50LatencyUS, s.P99LatencyUS)
	}
}

// TestDynamicBatchTimeout checks that the dynamic policy launches a
// partial batch once the oldest request has waited out the timeout.
func TestDynamicBatchTimeout(t *testing.T) {
	tr := replay(t, []float64{0, 50, 300}, []int{2, 4, 1})
	p, err := NewDynamicBatch(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, tr, p)

	if res.Batches != 2 {
		t.Fatalf("batches = %d, want 2", res.Batches)
	}
	// Request 0's deadline is t=100: requests 0+1 launch then (padded
	// SL 4 → 400µs, done 500). Request 2 arrived at 300 and its
	// deadline passed while the server was busy, so it launches
	// immediately at 500.
	r0 := res.Requests[0]
	if r0.StartUS != 100 || r0.DoneUS != 500 || r0.BatchSize != 2 {
		t.Errorf("request 0 = %+v, want start 100 done 500 batch 2", r0)
	}
	r2 := res.Requests[2]
	if r2.StartUS != 500 || r2.DoneUS != 600 {
		t.Errorf("request 2 = %+v, want start 500 done 600", r2)
	}
}

// TestDynamicZeroTimeoutServesImmediately: timeout 0 degenerates into
// serve-whatever-is-queued, the lowest-latency policy.
func TestDynamicZeroTimeoutServesImmediately(t *testing.T) {
	tr := replay(t, []float64{0, 10}, []int{3, 3})
	p, err := NewDynamicBatch(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, tr, p)
	if res.Batches != 2 {
		t.Fatalf("batches = %d, want 2", res.Batches)
	}
	if res.Requests[0].StartUS != 0 {
		t.Errorf("request 0 started at %v, want 0", res.Requests[0].StartUS)
	}
}

// TestLengthAwarePicksSimilarSLs checks the greedy batcher groups the
// oldest request with its closest sequence lengths, cutting padding.
func TestLengthAwarePicksSimilarSLs(t *testing.T) {
	tr := replay(t, []float64{0, 0, 0, 0}, []int{10, 100, 12, 90})
	p, err := NewLengthAware(2)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, tr, p)

	if res.Batches != 2 {
		t.Fatalf("batches = %d, want 2", res.Batches)
	}
	// Batch 1 anchors on SL 10 and should pick SL 12 (not FIFO's SL
	// 100): padded 12 instead of 100.
	if res.Requests[0].PaddedSL != 12 || res.Requests[2].PaddedSL != 12 {
		t.Errorf("length-aware batch 1 padded SLs = %d/%d, want 12/12",
			res.Requests[0].PaddedSL, res.Requests[2].PaddedSL)
	}
	if res.Requests[1].PaddedSL != 100 || res.Requests[3].PaddedSL != 100 {
		t.Errorf("length-aware batch 2 padded SLs = %d/%d, want 100/100",
			res.Requests[1].PaddedSL, res.Requests[3].PaddedSL)
	}

	// The same trace under FIFO fixed batching pads batch 1 to 100:
	// length-aware must be strictly cheaper in total busy time.
	fp, err := NewFixedBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	fifo := simulate(t, tr, fp)
	if res.BusyUS >= fifo.BusyUS {
		t.Errorf("length-aware busy %v >= FIFO busy %v", res.BusyUS, fifo.BusyUS)
	}
}

// TestLargeFixedBatchFillsFromArrivals is the regression test for the
// consult-limit bug: filling a 128-request batch one arrival at a time
// takes 127 wait-consults, which the old fixed 64-consult cap rejected
// even though the batch size is perfectly valid.
func TestLargeFixedBatchFillsFromArrivals(t *testing.T) {
	c := dataset.IWSLT15(1)
	trc, err := PoissonTrace(c, 256, 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewFixedBatch(128)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, trc, p)
	if res.Batches != 2 {
		t.Errorf("batches = %d, want 2 full batches of 128", res.Batches)
	}
	if res.Requests[0].BatchSize != 128 {
		t.Errorf("batch size = %d, want 128", res.Requests[0].BatchSize)
	}
}

// TestLengthAwareDeepBacklogBounded: with a deep backlog the
// length-aware picker only examines its candidate window per dispatch
// (keeping total work linear in the trace), still drains every request
// exactly once, and never starves the oldest request.
func TestLengthAwareDeepBacklogBounded(t *testing.T) {
	c := dataset.IWSLT15(1)
	trc, err := workload.BurstTrace(c, 4096, 13)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewLengthAware(2)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, trc, p)
	if res.Batches != 2048 {
		t.Errorf("batches = %d, want 2048", res.Batches)
	}
	served := make(map[int]bool, len(res.Requests))
	for _, m := range res.Requests {
		if served[m.ID] {
			t.Fatalf("request %d served twice", m.ID)
		}
		served[m.ID] = true
	}
	// FIFO anchor: request 0 is in the very first batch.
	if res.Requests[0].StartUS != 0 {
		t.Errorf("oldest request started at %v, want 0", res.Requests[0].StartUS)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{PolicyFixed, PolicyDynamic, PolicyLength, PolicyWFQ} {
		p, err := ParsePolicy(name, 4, 100)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
			continue
		}
		if p.MaxBatch() != 4 {
			t.Errorf("ParsePolicy(%q).MaxBatch() = %d, want 4", name, p.MaxBatch())
		}
	}
	if _, err := ParsePolicy("bogus", 4, 0); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := ParsePolicy(PolicyFixed, 0, 0); err == nil {
		t.Error("non-positive batch should error")
	}
	if _, err := ParsePolicy(PolicyDynamic, 4, math.Inf(1)); err == nil {
		t.Error("infinite timeout should error")
	}
}

// TestPolicyGates pins each bundled policy's exact verdict in the four
// gate states: one request before its deadline, at its deadline, at
// trace drain, and a full queue.
func TestPolicyGates(t *testing.T) {
	one := []Request{{ID: 0, ArrivalUS: 50, SeqLen: 8}}
	var full []Request
	for i, sl := range []int{8, 30, 9, 7, 8, 40} {
		full = append(full, Request{ID: i, ArrivalUS: 50, SeqLen: sl})
	}
	inf := math.Inf(1)
	wait := func(us float64) Decision { return Decision{WaitUntilUS: us} }
	pick := func(idx ...int) Decision { return Decision{Dispatch: true, Pick: idx} }
	for _, tc := range []struct {
		policy string
		want   [4]Decision
	}{
		{PolicyFixed, [4]Decision{wait(inf), wait(inf), pick(0), pick(0, 1, 2, 3)}},
		{PolicyDynamic, [4]Decision{wait(150), pick(0), pick(0), pick(0, 1, 2, 3)}},
		{PolicyLength, [4]Decision{wait(inf), wait(inf), pick(0), pick(0, 2, 3, 4)}},
		{PolicyWFQ, [4]Decision{wait(150), pick(0), pick(0), pick(0, 1, 2, 3)}},
	} {
		p, err := ParsePolicy(tc.policy, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		got := [4]Decision{
			p.Decide(one, 60, 500),
			p.Decide(one, 150, 500),
			p.Decide(one, 60, inf),
			p.Decide(full, 60, 500),
		}
		for i, state := range []string{"before deadline", "at deadline", "at drain", "full queue"} {
			if !reflect.DeepEqual(got[i], tc.want[i]) {
				t.Errorf("%s %s: %+v, want %+v", tc.policy, state, got[i], tc.want[i])
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	tr := replay(t, []float64{0}, []int{5})
	p, _ := NewFixedBatch(2)
	cases := []struct {
		name string
		spec Spec
	}{
		{"no model", Spec{Trace: tr, Policy: p}},
		{"no policy", Spec{Model: models.NewGNMT(), Trace: tr}},
		{"empty trace", Spec{Model: models.NewGNMT(), Policy: p}},
	}
	for _, tc := range cases {
		tc.spec.Profiles = &stubSource{}
		if _, err := Simulate(tc.spec, gpusim.VegaFE()); err == nil {
			t.Errorf("%s: Simulate = nil error, want a validation error", tc.name)
		}
	}
}

// TestHigherLoadHigherWait is the queueing sanity check: at the same
// service rate, doubling the arrival rate must not reduce mean wait.
func TestHigherLoadHigherWait(t *testing.T) {
	c := dataset.IWSLT15(1)
	waits := make([]float64, 0, 2)
	for _, rate := range []float64{200, 2000} {
		trc, err := PoissonTrace(c, 400, rate, 11)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewDynamicBatch(8, 2000)
		if err != nil {
			t.Fatal(err)
		}
		res := simulate(t, trc, p)
		waits = append(waits, res.Summary().MeanWaitUS)
	}
	if waits[1] < waits[0] {
		t.Errorf("mean wait fell from %v to %v µs as load rose 10x", waits[0], waits[1])
	}
}

// TestSummaryAccounting cross-checks the roll-up against first
// principles on a real simulation.
func TestSummaryAccounting(t *testing.T) {
	c := dataset.IWSLT15(1)
	trc, err := PoissonTrace(c, 200, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewDynamicBatch(8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, trc, p)
	s := res.Summary()

	if s.Requests != 200 {
		t.Errorf("summary requests = %d, want 200", s.Requests)
	}
	if s.Batches != res.Batches || s.Batches <= 0 {
		t.Errorf("summary batches = %d, result %d", s.Batches, res.Batches)
	}
	if s.UtilizationPct <= 0 || s.UtilizationPct > 100 {
		t.Errorf("utilization %v%% outside (0,100]", s.UtilizationPct)
	}
	if !(s.P50LatencyUS <= s.P95LatencyUS && s.P95LatencyUS <= s.P99LatencyUS) {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v",
			s.P50LatencyUS, s.P95LatencyUS, s.P99LatencyUS)
	}
	for _, m := range res.Requests {
		if m.StartUS < m.ArrivalUS {
			t.Fatalf("request %d started before it arrived: %+v", m.ID, m)
		}
		if m.DoneUS <= m.StartUS {
			t.Fatalf("request %d has non-positive service time: %+v", m.ID, m)
		}
	}
	buf, err := s.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 || buf[len(buf)-1] != '\n' {
		t.Error("Serialize should end with a newline")
	}
}

// TestSingleQueueProjectionIsTotal fills every FleetSummary field with
// a distinct value and requires the projection to copy each into the
// Summary field of the same name and JSON tag, so a field added to
// Summary and not projected fails here instead of serializing as zero.
func TestSingleQueueProjectionIsTotal(t *testing.T) {
	var fs FleetSummary
	fv := reflect.ValueOf(&fs).Elem()
	for i := 0; i < fv.NumField(); i++ {
		switch f := fv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("field%d", i))
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), i+1, i+1))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("FleetSummary.%s: no test value for kind %v", fv.Type().Field(i).Name, f.Kind())
		}
	}
	sv := reflect.ValueOf(fs.singleQueue())
	for i := 0; i < sv.NumField(); i++ {
		sf := sv.Type().Field(i)
		ff, ok := fv.Type().FieldByName(sf.Name)
		if !ok {
			t.Errorf("Summary.%s has no FleetSummary field of that name", sf.Name)
			continue
		}
		if got, want := sf.Tag.Get("json"), ff.Tag.Get("json"); got != want {
			t.Errorf("Summary.%s JSON tag %q, FleetSummary's %q", sf.Name, got, want)
		}
		if got, want := sv.Field(i).Interface(), fv.FieldByIndex(ff.Index).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("Summary.%s = %v, want FleetSummary's %v", sf.Name, got, want)
		}
	}
}

// TestSimulateThroughEngineDeterministic runs the same spec through
// fresh private engines at profiling parallelism 1 and 4 and requires
// byte-identical summaries — the serving-side determinism contract.
// (The root golden harness extends this to GOMAXPROCS plus a committed
// golden file.)
func TestSimulateThroughEngineDeterministic(t *testing.T) {
	c := dataset.Subsample(dataset.IWSLT15(1), 96, 1)
	trc, err := PoissonTrace(c, 64, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, par := range []int{1, 4} {
		eng := engine.New()
		eng.SetParallelism(par)
		p, err := NewDynamicBatch(4, 500)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(Spec{Model: models.NewGNMT(), Trace: trc, Policy: p, Profiles: eng}, gpusim.VegaFE())
		if err != nil {
			t.Fatal(err)
		}
		buf, err := res.Summary().Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf
			continue
		}
		if string(buf) != string(ref) {
			t.Errorf("summary at parallelism %d differs:\n%s\nvs\n%s", par, buf, ref)
		}
	}
}

// TestTakeBatchScratch pins the scratch-based takeBatch against the
// validation contract: out-of-range, duplicate, oversized and empty
// picks fail; valid picks extract in queue order and preserve the
// remaining queue's order.
func TestTakeBatchScratch(t *testing.T) {
	mkQueue := func() *requestQueue {
		q := &requestQueue{}
		for i := 0; i < 6; i++ {
			q.push(Request{ID: i, SeqLen: 10 + i})
		}
		return q
	}
	var scratch []int
	var dst []Request

	queue := mkQueue()
	batch, scratch, err := takeBatch(dst[:0], queue, []int{4, 0, 2}, scratch, 8, "test")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(batch[0].ID, batch[1].ID, batch[2].ID) != "0 2 4" {
		t.Fatalf("batch order %v, want IDs 0 2 4", batch)
	}
	if rest := queue.reqs(); len(rest) != 3 || fmt.Sprint(rest[0].ID, rest[1].ID, rest[2].ID) != "1 3 5" {
		t.Fatalf("remaining queue %v, want IDs 1 3 5", rest)
	}

	for name, pick := range map[string][]int{
		"empty":      {},
		"dup":        {1, 1},
		"oob":        {0, 9},
		"neg":        {-1},
		"oversized":  {0, 1, 2},
		"dup_spread": {2, 0, 2},
	} {
		max := 8
		if name == "oversized" {
			max = 2
		}
		if _, _, err := takeBatch(batch[:0], mkQueue(), pick, scratch, max, "test"); err == nil {
			t.Fatalf("%s pick accepted", name)
		}
	}
}

// TestReplicaQueueMatchesSlice drives the replica queue through random
// runs of enqueues, FIFO takes, selective takes and prepends, checking
// it against a plain-slice model after every operation. A FIFO take
// must leave the remaining requests where they were, and the backing
// array must stay within a constant factor of the peak live length:
// the array grows only when its free slots are fewer than a quarter of
// the live count or than a prepend needs, so the array it replaces held
// under 1.25 peaks, which growth doubles and size-class rounding raises
// by at most an eighth — under three peaks.
func TestReplicaQueueMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			q       requestQueue
			model   []Request
			scratch []int
			nextID  int
			peak    int
		)
		fresh := func(n int) []Request {
			out := make([]Request, n)
			for i := range out {
				out[i] = Request{ID: nextID, SeqLen: 1 + nextID%50}
				nextID++
			}
			return out
		}
		// Each run leans toward growing or draining, so queues reach a
		// few hundred requests and empty out again.
		pushWeight := 2 + rng.Intn(4)
		for op := 0; op < 400; op++ {
			var what string
			switch c := rng.Intn(pushWeight + 4); {
			case c < pushWeight:
				what = "push"
				for _, r := range fresh(1 + rng.Intn(6)) {
					q.push(r)
					model = append(model, r)
				}
			case c == pushWeight && len(model) > 0:
				what = "fifo take"
				n := min(len(model), 1+rng.Intn(16))
				before := q.reqs()
				batch, s, err := takeBatch(nil, &q, firstN(nil, n, 0), scratch, 16, "test")
				scratch = s
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch, model[:n]) {
					t.Fatalf("seed %d op %d: fifo batch %v, want %v", seed, op, batch, model[:n])
				}
				if rest := q.reqs(); len(rest) > 0 && &rest[0] != &before[n] {
					t.Fatalf("seed %d op %d: a FIFO take moved the queue", seed, op)
				}
				model = append([]Request(nil), model[n:]...)
			case c == pushWeight+1 && len(model) > 0:
				what = "selective take"
				window := min(len(model), minPickWindow)
				pick := rng.Perm(window)[:min(window, 1+rng.Intn(16))]
				batch, s, err := takeBatch(nil, &q, pick, scratch, 16, "test")
				scratch = s
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceTake(nil, &model, pick, 16, "test")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch, want) {
					t.Fatalf("seed %d op %d: pick %v took %v, want %v", seed, op, pick, batch, want)
				}
			case c == pushWeight+2:
				what = "prepend"
				evicted := fresh(1 + rng.Intn(8))
				q.prepend(evicted)
				model = prependRequests(model, evicted)
			default:
				continue
			}
			if got := q.reqs(); !(len(got) == 0 && len(model) == 0) && !reflect.DeepEqual(got, model) {
				t.Fatalf("seed %d op %d (%s): queue %v, model %v", seed, op, what, got, model)
			}
			peak = max(peak, len(model))
			if len(q.buf) > 3*peak+16 {
				t.Fatalf("seed %d op %d (%s): backing array of %d for a peak of %d requests",
					seed, op, what, len(q.buf), peak)
			}
		}
	}
}

// TestSimulateAllocsFlatInBatches pins that a run's allocation count
// does not grow with its batch count: every dispatch once formatted the
// policy name with fmt.Sprintf, which made allocations per run linear
// in batches. Both traces share one SL set, so the price table fills
// the same slots.
func TestSimulateAllocsFlatInBatches(t *testing.T) {
	policy, err := NewDynamicBatch(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(batches int) float64 {
		// Clumps of three arrivals, far enough apart that each clump
		// waits out the timeout and dispatches alone.
		var arrivals []float64
		var sls []int
		for b := 0; b < batches; b++ {
			for k := 0; k < 3; k++ {
				arrivals = append(arrivals, float64(b)*10_000)
				sls = append(sls, 4+4*k)
			}
		}
		spec := Spec{Model: models.NewGNMT(), Trace: replay(t, arrivals, sls), Policy: policy, Profiles: &stubSource{}}
		return testing.AllocsPerRun(5, func() {
			res, err := Simulate(spec, gpusim.VegaFE())
			if err != nil {
				t.Fatal(err)
			}
			if res.Batches != batches {
				t.Fatalf("%d batches, want %d", res.Batches, batches)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	if large-small > 8 {
		t.Fatalf("allocations grew with batch count: %v at 100 batches, %v at 1000", small, large)
	}
}
