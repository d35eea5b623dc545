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
	"seqpoint/internal/workload"
)

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
		"negative stop latency": func(s *FleetSpec) { s.Stop = &StopRule{P99LatencyUS: -1} },
		"NaN stop latency":      func(s *FleetSpec) { s.Stop = &StopRule{P99LatencyUS: math.NaN()} },
		"stop drop above 100": func(s *FleetSpec) {
			d := 101.0
			s.Stop = &StopRule{MaxDropRatePct: &d}
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

// TestStopRuleTimeline pins the early stop by hand on one fixed(1)
// replica serving SL 10 (1000 µs per batch under the stub pricer) to
// 200 requests arriving at once, so request i finishes at (i+1)×1000
// µs. Of 200 requests the p99 absorbs 200 - NearestRank(200, 99) = 2
// late ones: under a 2500 µs cap requests 0 and 1 are on time, 2 and 3
// are the absorbed late ones, and request 4's completion at 5000 µs
// settles the verdict. A capped queue of 150 rejects 50 arrivals, a
// 25% drop rate. The rule is checked between event instants, so a 20%
// drop cap stops the run once the instant that routes every arrival is
// done, with nothing served; under a 25% cap it runs to the end.
func TestStopRuleTimeline(t *testing.T) {
	fixed, _ := NewFixedBatch(1)
	arrivals := make([]float64, 200)
	sls := make([]int, 200)
	for i := range sls {
		sls[i] = 10
	}
	spec := FleetSpec{
		Model: models.NewGNMT(), Trace: replay(t, arrivals, sls), Policy: fixed,
		Router: NewRoundRobin(), Replicas: 1,
	}
	full := fleetSim(t, spec)

	late := spec
	late.Stop = &StopRule{P99LatencyUS: 2500}
	res := fleetSim(t, late)
	if !res.Stopped || len(res.Requests) != 5 || len(res.Rejections) != 0 {
		t.Fatalf("latency stop: stopped %v after %d served, %d rejected; want a stop after 5 served",
			res.Stopped, len(res.Requests), len(res.Rejections))
	}
	for i, m := range res.Requests {
		if m != full.Requests[i] {
			t.Errorf("request %d served as %+v, the full run as %+v", i, m, full.Requests[i])
		}
	}
	if sum := res.Summary(); !sum.Stopped || sum.P99LatencyUS != 5000 {
		t.Errorf("stopped summary: Stopped %v, p99 %v µs; want a marked summary with p99 5000 µs", sum.Stopped, sum.P99LatencyUS)
	}

	spec.QueueCap = 150
	full = fleetSim(t, spec)
	if len(full.Rejections) != 50 {
		t.Fatalf("capped queue rejected %d, want 50", len(full.Rejections))
	}
	for _, tc := range []struct {
		capPct  float64
		stopped bool
		served  int
	}{{20, true, 0}, {25, false, 150}} {
		drops := spec
		drops.Stop = &StopRule{MaxDropRatePct: &tc.capPct}
		res := fleetSim(t, drops)
		if res.Stopped != tc.stopped || len(res.Requests) != tc.served || len(res.Rejections) != 50 {
			t.Errorf("drop cap %v%%: stopped %v with %d served and %d rejected, want %v with %d served and 50 rejected",
				tc.capPct, res.Stopped, len(res.Requests), len(res.Rejections), tc.stopped, tc.served)
		}
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

// TestKeptSnapshotSameInstantArrivals holds the kept snapshot to a
// rebuild at every routing decision, KV bytes included, where arrivals
// share an instant and KV byte sums round: requests arrive four at a
// time, at 0.1, 0.3 and 1.7 bytes per token. A routed replica's KV
// bytes must be its queued plus in-flight sum, as a rebuild adds them,
// not a running sum of what the instant routed to it.
func TestKeptSnapshotSameInstantArrivals(t *testing.T) {
	const n = 400
	arrivals, sls := make([]float64, n), make([]int, n)
	for i := range arrivals {
		arrivals[i] = float64(i/4) * 37
		sls[i] = 3 + (7*i)%11
	}
	trace := replay(t, arrivals, sls)
	policy, err := NewDynamicBatch(4, 500)
	if err != nil {
		t.Fatal(err)
	}
	shared, last := 0, math.Inf(-1)
	routeHook = func(f *fleetRun) {
		checkKeptViews(t, f)
		if f.clock == last {
			shared++
		}
		last = f.clock
	}
	defer func() { routeHook = nil }()
	for _, bpt := range []float64{0.1, 0.3, 1.7} {
		for _, preempt := range []string{PreemptEvict, PreemptBlock} {
			last = math.Inf(-1)
			if _, err := SimulateFleet(FleetSpec{
				Model:    models.NewGNMT(),
				Trace:    trace,
				Policy:   policy,
				Router:   NewKVRouter(),
				Replicas: 3,
				Profiles: &stubSource{},
				KV:       &KVConfig{CapacityBytes: 25, DecodeSteps: 7, BytesPerToken: bpt, Preempt: preempt},
			}, gpusim.VegaFE()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no routing decision shared its instant with the one before")
	}
}
