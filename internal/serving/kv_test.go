package serving

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
)

// kvSpec builds a single-queue spec with the stub source (SL s prices
// at s*100µs, so a decode step costs 100µs) and hand-set KV knobs.
func kvSpec(tr Trace, p Policy, kv *KVConfig) Spec {
	return Spec{
		Model:    models.NewGNMT(),
		Trace:    tr,
		Policy:   p,
		Profiles: &stubSource{},
		KV:       kv,
	}
}

// TestPrependRequests pins eviction's queue order on both paths of the
// replica queue's prepend: evicted requests rejoin ahead of the queued
// ones with both orders kept, whether the queue has room before its
// head (after a take, the only case the event loop produces) or has to
// make it.
func TestPrependRequests(t *testing.T) {
	queueOf := func(ids ...int) *requestQueue {
		q := &requestQueue{}
		for _, id := range ids {
			q.push(Request{ID: id})
		}
		return q
	}
	ids := func(q *requestQueue) []int {
		var out []int
		for _, r := range q.reqs() {
			out = append(out, r.ID)
		}
		return out
	}
	room := queueOf(7, 8, 3, 4)
	if _, _, err := takeBatch(nil, room, []int{0, 1}, nil, 2, "test"); err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*requestQueue{"room before head": room, "no room": queueOf(3, 4)} {
		hadRoom := q.head >= 2
		first := &q.reqs()[0]
		q.prepend([]Request{{ID: 1}, {ID: 2}})
		if got := ids(q); fmt.Sprint(got) != "[1 2 3 4]" {
			t.Fatalf("%s: prepend order %v, want IDs [1 2 3 4]", name, got)
		}
		// With room, the queued requests stay where they were.
		if moved := &q.reqs()[2] != first; moved == hadRoom {
			t.Fatalf("%s: room before the head %v, queued requests moved %v", name, hadRoom, moved)
		}
	}
	empty := queueOf()
	empty.prepend([]Request{{ID: 9}})
	if got := ids(empty); fmt.Sprint(got) != "[9]" {
		t.Fatalf("prepend into empty queue = %v", got)
	}
	one := queueOf(9)
	one.prepend(nil)
	if got := ids(one); fmt.Sprint(got) != "[9]" {
		t.Fatalf("prepend nothing = %v", got)
	}
}

func TestKVBytesPerTokenScalesWithModel(t *testing.T) {
	small := models.KVBytesPerToken(models.NewDS2())
	large := models.KVBytesPerToken(models.NewGNMT())
	if small <= 0 || large <= 0 {
		t.Fatalf("footprints must be positive, got %v and %v", small, large)
	}
	if large <= small {
		t.Fatalf("GNMT (%v B/token) should out-weigh DS2 (%v B/token)", large, small)
	}
	// The config override wins over the model heuristic.
	k := newKVState(&KVConfig{CapacityBytes: 1, BytesPerToken: 42}, models.NewGNMT())
	if k.bpt != 42 {
		t.Fatalf("override bpt = %v, want 42", k.bpt)
	}
}

// One request, SL 3 with 4 decode steps: the prefill prices at 300µs,
// each decode step at SL 1 (100µs), so the first token lands at 300µs
// and completion at 700µs.
func TestKVPrefillDecodeSplitTiming(t *testing.T) {
	fixed, _ := NewFixedBatch(1)
	res, err := Simulate(kvSpec(replay(t, []float64{0}, []int{3}), fixed,
		&KVConfig{CapacityBytes: 1e9, DecodeSteps: 4}), gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Requests[0]
	if m.FirstUS != 300 || m.DoneUS != 700 {
		t.Fatalf("first/done = %v/%v, want 300/700", m.FirstUS, m.DoneUS)
	}
	if got := m.TTFTUS(); got != 300 {
		t.Fatalf("TTFT = %v, want 300", got)
	}
	if res.KV == nil || res.KV.Preemptions != 0 {
		t.Fatalf("KV stats = %+v, want zero preemptions", res.KV)
	}
}

// Two SL-10 requests at 10,000B each against a 15,000B ceiling: the
// pair cannot share the cache.
func kvTightTrace(t *testing.T) (Trace, Policy) {
	t.Helper()
	fixed, _ := NewFixedBatch(2)
	return replay(t, []float64{0, 0}, []int{10, 10}), fixed
}

func TestKVEvictPreemption(t *testing.T) {
	tr, pol := kvTightTrace(t)
	res, err := Simulate(kvSpec(tr, pol,
		&KVConfig{CapacityBytes: 15_000, BytesPerToken: 1000}), gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	// The second request is evicted to the queue and re-batched after
	// the first completes: two separate busy periods of 1000µs each.
	if res.KV.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", res.KV.Preemptions)
	}
	if got := []float64{res.Requests[0].DoneUS, res.Requests[1].DoneUS}; got[0] != 1000 || got[1] != 2000 {
		t.Fatalf("completions = %v, want [1000 2000]", got)
	}
	if res.Batches != 2 {
		t.Fatalf("batches = %d, want 2", res.Batches)
	}
	if res.KV.PeakBytes != 10_000 {
		t.Fatalf("peak = %v, want 10000", res.KV.PeakBytes)
	}
}

func TestKVBlockPreemption(t *testing.T) {
	tr, pol := kvTightTrace(t)
	res, err := Simulate(kvSpec(tr, pol,
		&KVConfig{CapacityBytes: 15_000, BytesPerToken: 1000, Preempt: PreemptBlock}), gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	// Both requests run as consecutive waves of one busy period; the
	// second blocks behind the first's cache and completes at 2000µs.
	if res.KV.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", res.KV.Preemptions)
	}
	if got := []float64{res.Requests[0].DoneUS, res.Requests[1].DoneUS}; got[0] != 1000 || got[1] != 2000 {
		t.Fatalf("completions = %v, want [1000 2000]", got)
	}
	// The blocked request's wave starts when the first wave's cache
	// frees: its recorded start is the wave boundary, not the launch.
	if res.Requests[1].StartUS != 1000 {
		t.Fatalf("blocked wave start = %v, want the 1000µs wave boundary", res.Requests[1].StartUS)
	}
	if res.Batches != 2 {
		t.Fatalf("waves = %d, want 2", res.Batches)
	}
}

func TestKVOversizeRequest(t *testing.T) {
	fixed, _ := NewFixedBatch(1)
	// Single-queue: an unservable request is a spec error.
	_, err := Simulate(kvSpec(replay(t, []float64{0}, []int{10}), fixed,
		&KVConfig{CapacityBytes: 5000, BytesPerToken: 1000}), gpusim.VegaFE())
	if !errors.Is(err, ErrKVCapacity) || !strings.Contains(err.Error(), "request 0 needs 10000 KV bytes, above the 5000-byte capacity") {
		t.Fatalf("Simulate error = %v, want ErrKVCapacity naming the request and its bytes", err)
	}

	// Fleet: the same request is rejected at admission with a typed
	// reason; servable requests still complete.
	res := fleetSim(t, FleetSpec{
		Model: models.NewGNMT(), Trace: replay(t, []float64{0, 1}, []int{10, 2}),
		Policy: fixed, Router: NewRoundRobin(), Replicas: 1,
		KV: &KVConfig{CapacityBytes: 5000, BytesPerToken: 1000},
	})
	if len(res.Requests) != 1 || len(res.Rejections) != 1 {
		t.Fatalf("served %d rejected %d, want 1/1", len(res.Requests), len(res.Rejections))
	}
	if rej := res.Rejections[0]; rej.ID != 0 || rej.Reason != RejectReasonKVCapacity {
		t.Fatalf("rejection = %+v, want request 0 for %q", rej, RejectReasonKVCapacity)
	}
}

func TestKVRouterPrefersLeastPressure(t *testing.T) {
	r := NewKVRouter()
	views := []ReplicaView{
		{ID: 0, KVBytes: 5000, Live: true, HasRoom: true},
		{ID: 1, KVBytes: 2000, Live: true, HasRoom: true},
		{ID: 2, KVBytes: 2000, Live: true, HasRoom: true},
		{ID: 3, KVBytes: 1000, Live: true, HasRoom: true},
	}
	if got := r.Route(Request{}, views); got != 3 {
		t.Fatalf("route = %d, want the least-loaded eligible replica 3", got)
	}
	views[3].HasRoom = false
	views[0].KVBytes = 2000
	if got := r.Route(Request{}, views); got != 0 {
		t.Fatalf("route = %d, want tie broken to the lowest ID 0", got)
	}
	if got := r.Route(Request{}, []ReplicaView{{ID: 0}}); got != -1 {
		t.Fatalf("route with no eligible replica = %d, want -1", got)
	}
}

func TestFleetKVRoutingNeedsKV(t *testing.T) {
	fixed, _ := NewFixedBatch(2)
	spec := FleetSpec{
		Model: models.NewGNMT(), Trace: replay(t, []float64{0}, []int{3}),
		Policy: fixed, Router: NewKVRouter(), Replicas: 2, Profiles: &stubSource{},
	}
	if _, err := SimulateFleet(spec, gpusim.VegaFE()); err == nil ||
		!strings.Contains(err.Error(), "needs the KV model") {
		t.Fatalf("error = %v, want a kv-routing complaint", err)
	}
}

func TestDisaggValidation(t *testing.T) {
	fixed, _ := NewFixedBatch(2)
	base := FleetSpec{
		Model: models.NewGNMT(), Trace: replay(t, []float64{0}, []int{3}),
		Policy: fixed, Router: NewRoundRobin(), Replicas: 3, Profiles: &stubSource{},
		KV:     &KVConfig{CapacityBytes: 1e9},
		Disagg: &DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2},
	}

	noKV := base
	noKV.KV = nil
	if _, err := SimulateFleet(noKV, gpusim.VegaFE()); err == nil {
		t.Error("disagg without KV should fail validation")
	}
	badSum := base
	badSum.Replicas = 4
	if _, err := SimulateFleet(badSum, gpusim.VegaFE()); err == nil {
		t.Error("pool sizes not summing to replicas should fail validation")
	}
	scaled := base
	scaled.Autoscale = &AutoscaleConfig{Min: 1, Max: 3, UpDepth: 1, DownDepth: 0.5, CooldownUS: 0}
	if _, err := SimulateFleet(scaled, gpusim.VegaFE()); err == nil {
		t.Error("disagg with autoscale should fail validation")
	}
	stopped := base
	stopped.Stop = &StopRule{P99LatencyUS: 1000}
	if _, err := SimulateFleet(stopped, gpusim.VegaFE()); err == nil {
		t.Error("disagg with a stop rule should fail validation")
	}
	if err := (DisaggConfig{PrefillReplicas: 0, DecodeReplicas: 2}).Validate(); err == nil {
		t.Error("empty prefill pool should fail validation")
	}
}

func TestDisaggTwoStageServing(t *testing.T) {
	fixed, _ := NewFixedBatch(2)
	res := fleetSim(t, FleetSpec{
		Model: models.NewGNMT(), Trace: replay(t, []float64{0, 5, 9}, []int{3, 4, 5}),
		Policy: fixed, Router: NewRoundRobin(), Replicas: 2,
		KV:     &KVConfig{CapacityBytes: 1e9, DecodeSteps: 2},
		Disagg: &DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 1},
	})
	if res.Disagg != "prefill=1,decode=1" {
		t.Fatalf("disagg tag = %q", res.Disagg)
	}
	if len(res.Requests) != 3 || len(res.Rejections) != 0 {
		t.Fatalf("served %d rejected %d, want 3/0", len(res.Requests), len(res.Rejections))
	}
	for _, m := range res.Requests {
		// Merged timelines: queueing and prefill on the prefill pool,
		// completion on a decode replica (global IDs P..P+D-1), with two
		// decode steps (200µs) after the first token.
		if m.Replica != 1 {
			t.Fatalf("request %d completed on replica %d, want decode replica 1", m.ID, m.Replica)
		}
		if m.FirstUS < m.StartUS || m.DoneUS < m.FirstUS+200 {
			t.Fatalf("request %d timeline start=%v first=%v done=%v violates the two-stage shape",
				m.ID, m.StartUS, m.FirstUS, m.DoneUS)
		}
	}
	if len(res.ReplicaStats) != 2 {
		t.Fatalf("replica stats = %d entries, want 2", len(res.ReplicaStats))
	}
	if res.ReplicaStats[0].Replica != 0 || res.ReplicaStats[1].Replica != 1 {
		t.Fatalf("replica IDs = %d,%d, want 0,1", res.ReplicaStats[0].Replica, res.ReplicaStats[1].Replica)
	}
	sum := res.Summary()
	if sum.Disagg == "" || sum.P99TTFTUS <= 0 {
		t.Fatalf("summary should carry the pool split and TTFT tail, got disagg=%q p99TTFT=%v",
			sum.Disagg, sum.P99TTFTUS)
	}
}

func TestKVConfigValidate(t *testing.T) {
	for name, cfg := range map[string]KVConfig{
		"zero capacity":     {CapacityBytes: 0},
		"negative capacity": {CapacityBytes: -1},
		"negative steps":    {CapacityBytes: 1, DecodeSteps: -1},
		"negative bpt":      {CapacityBytes: 1, BytesPerToken: -2},
		"unknown preempt":   {CapacityBytes: 1, Preempt: "laze"},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
	if err := (KVConfig{CapacityBytes: 1, Preempt: PreemptBlock}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// With KV disabled the simulator must not consult the profile source
// for decode prices: the exact pre-KV call sequence is part of the
// byte-compatibility contract the goldens pin.
func TestKVOffMakesNoDecodeProfileCalls(t *testing.T) {
	fixed, _ := NewFixedBatch(2)
	tr := replay(t, []float64{0, 5}, []int{3, 4})

	off := &stubSource{}
	if _, err := Simulate(Spec{Model: models.NewGNMT(), Trace: tr, Policy: fixed, Profiles: off},
		gpusim.VegaFE()); err != nil {
		t.Fatal(err)
	}
	on := &stubSource{}
	if _, err := Simulate(Spec{Model: models.NewGNMT(), Trace: tr, Policy: fixed, Profiles: on,
		KV: &KVConfig{CapacityBytes: 1e9, DecodeSteps: 1}}, gpusim.VegaFE()); err != nil {
		t.Fatal(err)
	}
	// The prefetch batches all SLs into one call per run; the KV run
	// must not make FEWER calls than the off run, and the off run's
	// count must be the historical single prefetch.
	if off.calls != 1 {
		t.Fatalf("KV-off run made %d profile calls, want the single prefetch", off.calls)
	}
	if on.calls < off.calls {
		t.Fatalf("KV-on run made %d calls, off %d", on.calls, off.calls)
	}
}

func TestRouteErrorIsTyped(t *testing.T) {
	if !errors.Is(ErrBadRoute, ErrBadRoute) {
		t.Fatal("ErrBadRoute must match itself")
	}
}
