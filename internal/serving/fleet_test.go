package serving

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
	"seqpoint/internal/workload"
)

// clusterStub prices a batch at sequence length sl as sl*100 µs divided
// by the replica cluster's GPU count: a hermetic stand-in for
// data-parallel serving replicas, so heterogeneous-fleet tests are
// hand-computable.
type clusterStub struct{}

func (clusterStub) TrainProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	return clusterStub{}.EvalProfiles(hw, cl, m, batch, seqLens)
}

func (clusterStub) EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	out := make(map[int]profiler.IterationProfile, len(seqLens))
	for _, sl := range seqLens {
		out[sl] = profiler.IterationProfile{SeqLen: sl, Batch: batch, TimeUS: float64(sl) * 100 / float64(cl.Normalized().GPUs)}
	}
	return out, nil
}

// fleetSim runs a fleet spec with the stub pricer and fails the test on
// error.
func fleetSim(t *testing.T, spec FleetSpec) *FleetResult {
	t.Helper()
	if spec.Profiles == nil {
		spec.Profiles = &stubSource{}
	}
	res, err := SimulateFleet(spec, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseRouting(t *testing.T) {
	for _, name := range []string{RoutingRoundRobin, RoutingLeastOutstanding, RoutingJSQ, RoutingPowerOfTwo} {
		r, err := ParseRouting(name, 1)
		if err != nil {
			t.Fatalf("ParseRouting(%q): %v", name, err)
		}
		if !strings.HasPrefix(r.Name(), name) {
			t.Errorf("ParseRouting(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := ParseRouting("random", 1); err == nil {
		t.Error("unknown routing should error")
	}
}

func TestRouterPicks(t *testing.T) {
	views := []ReplicaView{
		{ID: 0, Live: true, Queued: 3, InFlight: 0, HasRoom: true},
		{ID: 1, Live: true, Queued: 1, InFlight: 8, HasRoom: true},
		{ID: 2, Live: false, Queued: 0, InFlight: 0, HasRoom: true},
		{ID: 3, Live: true, Queued: 2, InFlight: 0, HasRoom: false},
		{ID: 4, Live: true, Queued: 2, InFlight: 0, HasRoom: true},
	}
	req := Request{ID: 0, SeqLen: 8}

	if got := NewJSQ().Route(req, views); got != 1 {
		t.Errorf("jsq picked %d, want 1 (shortest queue)", got)
	}
	// Least-outstanding sees replica 1's in-flight batch of 8.
	if got := NewLeastOutstanding().Route(req, views); got != 4 {
		t.Errorf("least picked %d, want 4 (2 outstanding)", got)
	}

	// Round-robin cycles over eligible replicas only: 0, 1, 4, 0, ...
	rr := NewRoundRobin()
	var picks []int
	for i := 0; i < 4; i++ {
		picks = append(picks, rr.Route(req, views))
	}
	if want := []int{0, 1, 4, 0}; fmt.Sprint(picks) != fmt.Sprint(want) {
		t.Errorf("rr picks %v, want %v", picks, want)
	}

	// po2 always lands on an eligible replica and replays identically
	// under the same seed.
	p1, p2 := NewPowerOfTwo(7), NewPowerOfTwo(7)
	for i := 0; i < 32; i++ {
		a, b := p1.Route(req, views), p2.Route(req, views)
		if a != b {
			t.Fatalf("po2 picks diverged at %d: %d vs %d", i, a, b)
		}
		if !views[a].eligible() {
			t.Fatalf("po2 picked ineligible replica %d", a)
		}
	}
	// One eligible replica: po2 must pick it.
	solo := []ReplicaView{{ID: 0, Live: false}, {ID: 1, Live: true, HasRoom: true}}
	if got := NewPowerOfTwo(1).Route(req, solo); got != 1 {
		t.Errorf("po2 with one eligible replica picked %d, want 1", got)
	}
}

// TestFleetSingleReplicaEquivalence is the strict-generalization
// property: a 1-replica round-robin fleet with an unbounded queue must
// reproduce the standalone single-queue reference loop request by
// request, for every bundled policy and arrival process.
func TestFleetSingleReplicaEquivalence(t *testing.T) {
	corpus := dataset.IWSLT15(1)
	poisson, err := PoissonTrace(corpus, 200, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := workload.BurstTrace(corpus, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	replayed := replay(t,
		[]float64{0, 10, 10, 500, 2000, 2000, 2000, 9000},
		[]int{4, 9, 2, 7, 5, 5, 12, 3})

	fixed, _ := NewFixedBatch(4)
	dynamic, _ := NewDynamicBatch(4, 500)
	length, _ := NewLengthAware(4)

	for _, tc := range []struct {
		name  string
		trace Trace
	}{
		{"poisson", poisson}, {"burst", burst}, {"replay", replayed},
	} {
		for _, pol := range []Policy{fixed, dynamic, length} {
			t.Run(tc.name+"/"+pol.Name(), func(t *testing.T) {
				single, err := referenceSimulate(Spec{
					Model: models.NewGNMT(), Trace: tc.trace, Policy: pol, Profiles: &stubSource{},
				}, gpusim.VegaFE())
				if err != nil {
					t.Fatal(err)
				}
				fleet := fleetSim(t, FleetSpec{
					Model: models.NewGNMT(), Trace: tc.trace, Policy: pol,
					Router: NewRoundRobin(), Replicas: 1,
				})
				sameRun(t, single, fleet)
			})
		}
	}
}

func TestFleetSpecValidation(t *testing.T) {
	fixed, _ := NewFixedBatch(4)
	tr := replay(t, []float64{0}, []int{5})
	base := FleetSpec{
		Model: models.NewGNMT(), Trace: tr, Policy: fixed,
		Router: NewRoundRobin(), Replicas: 2,
	}
	for name, mutate := range map[string]func(*FleetSpec){
		"nil model":        func(s *FleetSpec) { s.Model = nil },
		"nil policy":       func(s *FleetSpec) { s.Policy = nil },
		"nil router":       func(s *FleetSpec) { s.Router = nil },
		"zero replicas":    func(s *FleetSpec) { s.Replicas = 0 },
		"replica overflow": func(s *FleetSpec) { s.Replicas = MaxFleetReplicas + 1 },
		"negative cap":     func(s *FleetSpec) { s.QueueCap = -1 },
		"cluster mismatch": func(s *FleetSpec) { s.Clusters = []gpusim.ClusterConfig{gpusim.SingleGPU()} },
		"bad cluster":      func(s *FleetSpec) { s.Clusters = []gpusim.ClusterConfig{{GPUs: 2}, {GPUs: 2}} },
		"empty trace":      func(s *FleetSpec) { s.Trace = Trace{} },
		"autoscale min":    func(s *FleetSpec) { s.Autoscale = &AutoscaleConfig{Min: 0, Max: 4, UpDepth: 4} },
		"autoscale max":    func(s *FleetSpec) { s.Autoscale = &AutoscaleConfig{Min: 2, Max: 1, UpDepth: 4} },
		"autoscale depths": func(s *FleetSpec) { s.Autoscale = &AutoscaleConfig{Min: 1, Max: 4, UpDepth: 2, DownDepth: 2} },
		"autoscale cooldown": func(s *FleetSpec) {
			s.Autoscale = &AutoscaleConfig{Min: 1, Max: 4, UpDepth: 4, CooldownUS: math.Inf(1)}
		},
		"initial outside bounds": func(s *FleetSpec) {
			s.Replicas = 8
			s.Autoscale = &AutoscaleConfig{Min: 1, Max: 4, UpDepth: 4}
		},
	} {
		spec := base
		mutate(&spec)
		if _, err := SimulateFleet(spec, gpusim.VegaFE()); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

// TestFleetAdmissionControl pins the bounded-queue timeline by hand: a
// busy single replica with queue capacity 1 rejects the arrival that
// finds the slot taken, with a typed reason.
func TestFleetAdmissionControl(t *testing.T) {
	fixed, _ := NewFixedBatch(1)
	res := fleetSim(t, FleetSpec{
		Model: models.NewGNMT(),
		// SL 10 → 1000 µs per batch under the stub pricer.
		Trace:    replay(t, []float64{0, 100, 200, 1100}, []int{10, 10, 10, 10}),
		Policy:   fixed,
		Router:   NewRoundRobin(),
		Replicas: 1,
		QueueCap: 1,
	})
	if len(res.Rejections) != 1 || res.Rejections[0].ID != 2 {
		t.Fatalf("rejections = %+v, want exactly request 2", res.Rejections)
	}
	rej := res.Rejections[0]
	if rej.Reason != RejectReasonQueueFull || rej.ArrivalUS != 200 || rej.SeqLen != 10 {
		t.Errorf("rejection = %+v, want queue_full at 200 µs with SL 10", rej)
	}
	if len(res.Requests) != 3 {
		t.Fatalf("served %d requests, want 3", len(res.Requests))
	}
	wantDone := []float64{1000, 2000, 3000}
	for i, m := range res.Requests {
		if m.DoneUS != wantDone[i] {
			t.Errorf("request %d done at %v, want %v", m.ID, m.DoneUS, wantDone[i])
		}
	}
	sum := res.Summary()
	if sum.Requests != 4 || sum.Served != 3 || sum.Rejected != 1 {
		t.Errorf("summary counts %d/%d/%d, want 4/3/1", sum.Requests, sum.Served, sum.Rejected)
	}
	if sum.DropRatePct != 25 {
		t.Errorf("drop rate %v%%, want 25%%", sum.DropRatePct)
	}
}

// TestFleetHeterogeneousReplicas gives one replica two GPUs: under
// least-outstanding routing it must serve more requests than the
// single-GPU replica, because each of its batches finishes twice as
// fast.
func TestFleetHeterogeneousReplicas(t *testing.T) {
	fixed, _ := NewFixedBatch(1)
	n := 64
	arrivals := make([]float64, n)
	sls := make([]int, n)
	for i := range arrivals {
		arrivals[i] = float64(i) * 300
		sls[i] = 10 // 1000 µs on 1 GPU, 500 µs on 2
	}
	res := fleetSim(t, FleetSpec{
		Model:    models.NewGNMT(),
		Trace:    replay(t, arrivals, sls),
		Policy:   fixed,
		Router:   NewLeastOutstanding(),
		Replicas: 2,
		Clusters: []gpusim.ClusterConfig{gpusim.SingleGPU(), gpusim.DefaultCluster(2)},
		Profiles: clusterStub{},
	})
	slow, fast := res.ReplicaStats[0], res.ReplicaStats[1]
	if slow.GPUs != 1 || fast.GPUs != 2 {
		t.Fatalf("replica GPUs %d/%d, want 1/2", slow.GPUs, fast.GPUs)
	}
	if fast.Served <= slow.Served {
		t.Errorf("2-GPU replica served %d <= 1-GPU replica's %d", fast.Served, slow.Served)
	}
	if got := slow.Served + fast.Served; got != n {
		t.Errorf("replicas served %d, want %d", got, n)
	}
}

// TestFleetAutoscale drives a load spike through a 1..3 autoscaled
// fleet: the spike must scale it up, the drain back down, and the
// replica-seconds cost proxy must come in under always-on peak
// capacity.
func TestFleetAutoscale(t *testing.T) {
	fixed, _ := NewFixedBatch(1)
	var arrivals []float64
	var sls []int
	// 40 requests in a fast burst (every 50 µs), then a long quiet
	// tail while the backlog drains.
	for i := 0; i < 40; i++ {
		arrivals = append(arrivals, float64(i)*50)
		sls = append(sls, 10)
	}
	arrivals = append(arrivals, 120_000)
	sls = append(sls, 10)
	res := fleetSim(t, FleetSpec{
		Model:    models.NewGNMT(),
		Trace:    replay(t, arrivals, sls),
		Policy:   fixed,
		Router:   NewJSQ(),
		Replicas: 1,
		Autoscale: &AutoscaleConfig{
			Min: 1, Max: 3, UpDepth: 2, DownDepth: 0.5, CooldownUS: 100,
		},
	})
	if res.ScaleUps == 0 {
		t.Error("load spike did not scale the fleet up")
	}
	if res.ScaleDowns == 0 {
		t.Error("drained fleet did not scale down")
	}
	if res.PeakReplicas <= 1 || res.PeakReplicas > 3 {
		t.Errorf("peak replicas %d, want in (1, 3]", res.PeakReplicas)
	}
	sum := res.Summary()
	if sum.Served != len(arrivals) {
		t.Errorf("served %d, want %d (no admission bound configured)", sum.Served, len(arrivals))
	}
	alwaysOn := 3 * res.MakespanUS / 1e6
	if sum.ReplicaSeconds >= alwaysOn {
		t.Errorf("replica-seconds %v not below always-on peak %v", sum.ReplicaSeconds, alwaysOn)
	}
	if sum.ReplicaSeconds <= 0 {
		t.Errorf("replica-seconds %v, want positive", sum.ReplicaSeconds)
	}
}

// TestFleetDeterminism runs the same seeded spec twice — po2 routing,
// so the router's RNG is in play — and demands byte-identical
// summaries.
func TestFleetDeterminism(t *testing.T) {
	corpus := dataset.IWSLT15(1)
	trace, err := PoissonTrace(corpus, 300, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		dynamic, _ := NewDynamicBatch(8, 2000)
		res := fleetSim(t, FleetSpec{
			Model: models.NewGNMT(), Trace: trace, Policy: dynamic,
			Router: NewPowerOfTwo(5), Replicas: 3, QueueCap: 16,
		})
		buf, err := res.Summary().Serialize()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("identical fleet specs produced different summaries:\n%s\nvs\n%s", a, b)
	}
}

// TestFleetJSQBeatsRoundRobin is the routing-policy payoff on a skewed
// trace: with per-batch service times set by sequence length,
// queue-aware routing must not lose to the oblivious baseline on the
// p99 tail.
func TestFleetJSQBeatsRoundRobin(t *testing.T) {
	corpus := dataset.IWSLT15(1)
	// Past the 3-replica knee, round-robin's obliviousness piles short
	// requests behind long batches while JSQ keeps the queues level.
	trace, err := PoissonTrace(corpus, 400, 2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	fixedSpec := func(r Router) FleetSpec {
		dynamic, _ := NewDynamicBatch(4, 1000)
		return FleetSpec{
			Model: models.NewGNMT(), Trace: trace, Policy: dynamic,
			Router: r, Replicas: 3,
		}
	}
	rr := fleetSim(t, fixedSpec(NewRoundRobin())).Summary()
	jsq := fleetSim(t, fixedSpec(NewJSQ())).Summary()
	if jsq.P99LatencyUS >= rr.P99LatencyUS {
		t.Errorf("JSQ p99 %v not below round-robin %v past the knee", jsq.P99LatencyUS, rr.P99LatencyUS)
	}
	if jsq.MeanWaitUS >= rr.MeanWaitUS {
		t.Errorf("JSQ mean wait %v not below round-robin %v past the knee", jsq.MeanWaitUS, rr.MeanWaitUS)
	}
	if jsq.Served != rr.Served {
		t.Errorf("routing changed the served count: %d vs %d", jsq.Served, rr.Served)
	}
}

// stuckPolicy violates the Policy contract: it refuses to dispatch
// even when nothing will ever wake the server again.
type stuckPolicy struct{}

func (stuckPolicy) Name() string  { return "stuck" }
func (stuckPolicy) MaxBatch() int { return 4 }
func (stuckPolicy) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	return Decision{WaitUntilUS: math.Inf(1)}
}

// napPolicy keeps asking for tiny finite waits without ever
// dispatching — the runaway-consult pathology the bound exists for.
type napPolicy struct{}

func (napPolicy) Name() string  { return "nap" }
func (napPolicy) MaxBatch() int { return 4 }
func (napPolicy) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	return Decision{WaitUntilUS: nowUS + 1}
}

// pastPolicy asks to wait until a time that already passed.
type pastPolicy struct{}

func (pastPolicy) Name() string  { return "past" }
func (pastPolicy) MaxBatch() int { return 4 }
func (pastPolicy) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	return Decision{WaitUntilUS: nowUS - 10}
}

// TestFleetPolicyMisbehavior: contract-violating policies must turn
// into errors, never hangs.
func TestFleetPolicyMisbehavior(t *testing.T) {
	for name, tc := range map[string]struct {
		policy  Policy
		wantErr string
	}{
		"stuck":         {stuckPolicy{}, "refused to dispatch"},
		"runaway waits": {napPolicy{}, "consulted"},
		"past deadline": {pastPolicy{}, "the past"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := SimulateFleet(FleetSpec{
				Model: models.NewGNMT(), Trace: replay(t, []float64{0, 5}, []int{3, 4}),
				Policy: tc.policy, Router: NewRoundRobin(), Replicas: 1,
				Profiles: &stubSource{},
			}, gpusim.VegaFE())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// wildRouter returns an out-of-range replica; the fleet must surface
// the contract violation as ErrBadRoute, not silently reroute (the old
// fallback masked router bugs and made results depend on which replica
// the fallback happened to choose).
type wildRouter struct{ pick int }

func (wildRouter) Name() string                                    { return "wild" }
func (w wildRouter) Route(req Request, replicas []ReplicaView) int { return w.pick }

func TestFleetBuggyRouterRejected(t *testing.T) {
	// Out of range, and in-range-but-ineligible once queues fill
	// (QueueCap 1 with a never-dispatching policy saturates replica 0).
	for name, router := range map[string]Router{
		"out of range": wildRouter{pick: 99},
		"negative":     wildRouter{pick: -1},
	} {
		t.Run(name, func(t *testing.T) {
			fixed, _ := NewFixedBatch(2)
			_, err := SimulateFleet(FleetSpec{
				Model: models.NewGNMT(), Trace: replay(t, []float64{0, 5, 9}, []int{3, 4, 5}),
				Policy: fixed, Router: router, Replicas: 2,
				Profiles: &stubSource{},
			}, gpusim.VegaFE())
			if !errors.Is(err, ErrBadRoute) {
				t.Fatalf("error = %v, want ErrBadRoute", err)
			}
			if err == nil || !strings.Contains(err.Error(), `router "wild"`) {
				t.Fatalf("error %v should name the misbehaving router", err)
			}
		})
	}
}

// TestParallelismValidation pins the deprecated FleetSpec.Parallelism
// contract: a negative value is still rejected, and any other value is
// accepted and changes no output byte.
func TestParallelismValidation(t *testing.T) {
	policy, err := NewFixedBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	spec := FleetSpec{
		Model:       models.NewGNMT(),
		Trace:       replay(t, []float64{0, 0, 5, 9}, []int{3, 5, 7, 3}),
		Policy:      policy,
		Router:      NewRoundRobin(),
		Replicas:    2,
		Parallelism: -1,
		Profiles:    &stubSource{},
	}
	if _, err := SimulateFleet(spec, gpusim.VegaFE()); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	spec.Parallelism = 0
	want, _ := fleetSim(t, spec).Summary().Serialize()
	spec.Parallelism = 4
	spec.Router = NewRoundRobin()
	got, _ := fleetSim(t, spec).Summary().Serialize()
	if !bytes.Equal(got, want) {
		t.Fatalf("Parallelism changed the summary:\n%s\nvs\n%s", got, want)
	}
}
