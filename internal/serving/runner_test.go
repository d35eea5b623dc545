package serving

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/trainer"
)

// runnerStep is one spec of a Runner sequence. Routers carry state, so
// spec builds a fresh one on every call.
type runnerStep struct {
	name string
	spec func(src trainer.ProfileSource) FleetSpec
	// check asserts what the step must exercise.
	check func(FleetSummary) error
}

// runnerTrace is a seeded Poisson trace over lengths, with tenant
// labels cycled across it when tenants > 0.
func runnerTrace(t *testing.T, lengths []int, n int, rate float64, seed int64, tenants int) Trace {
	t.Helper()
	c, err := dataset.Synthetic("runner", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := PoissonTrace(c, n, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; tenants > 0 && i < len(tr.Requests); i++ {
		tr.Requests[i].Tenant = fmt.Sprintf("t%d", i%tenants)
	}
	return tr
}

// runnerSteps grows and shrinks the trace and the fleet, switches the
// KV model and tenants on and off, rejects at queue caps, autoscales,
// stops a run just before running the same fleet in full, and ends on
// a disaggregated fleet.
func runnerSteps(t *testing.T) []runnerStep {
	short := []int{4, 8, 12, 16, 20, 24, 28, 32}
	long := []int{10, 30, 50, 70, 90}
	fixed := func(b int) Policy {
		p, err := NewFixedBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dynamic, err := NewDynamicBatch(4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	router := func(name string) Router {
		r, err := ParseRouting(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	heavyKV := &KVConfig{CapacityBytes: 60_000, DecodeSteps: 16, BytesPerToken: 1000}
	blockKV := &KVConfig{CapacityBytes: 120_000, DecodeSteps: 4, BytesPerToken: 1000, Preempt: PreemptBlock}
	gnmt := models.NewGNMT()
	late := StopRule{P99LatencyUS: 1}
	overloaded := runnerTrace(t, short, 300, 2e5, 5, 0)

	spec := func(tr Trace, p Policy, r string, replicas, queueCap int) func(trainer.ProfileSource) FleetSpec {
		return func(src trainer.ProfileSource) FleetSpec {
			return FleetSpec{Model: gnmt, Trace: tr, Policy: p, Router: router(r), Replicas: replicas, QueueCap: queueCap, Profiles: src}
		}
	}
	with := func(base func(trainer.ProfileSource) FleetSpec, edit func(*FleetSpec)) func(trainer.ProfileSource) FleetSpec {
		return func(src trainer.ProfileSource) FleetSpec {
			s := base(src)
			edit(&s)
			return s
		}
	}
	need := func(what string, ok func(FleetSummary) bool) func(FleetSummary) error {
		return func(s FleetSummary) error {
			if !ok(s) {
				return fmt.Errorf("the step does not exercise %s", what)
			}
			return nil
		}
	}
	return []runnerStep{
		{name: "small rr", spec: spec(runnerTrace(t, short, 64, 2000, 1, 0), fixed(4), RoutingRoundRobin, 2, 0)},
		{
			name:  "more requests and replicas, queue cap rejects",
			spec:  spec(runnerTrace(t, short, 400, 1e5, 2, 0), fixed(4), RoutingPowerOfTwo, 6, 3),
			check: need("rejections", func(s FleetSummary) bool { return s.Rejected > 0 }),
		},
		{
			name: "KV evicts, tenants",
			spec: with(spec(runnerTrace(t, short, 200, 5e4, 3, 3), fixed(4), RoutingKV, 4, 0),
				func(s *FleetSpec) { s.KV = heavyKV }),
			check: need("preemptions and tenants", func(s FleetSummary) bool { return s.Preemptions > 0 && len(s.PerTenant) == 3 }),
		},
		{
			name: "KV blocks, fewer requests and replicas",
			spec: with(spec(runnerTrace(t, short, 50, 3000, 4, 0), fixed(4), RoutingJSQ, 2, 0),
				func(s *FleetSpec) { s.KV = blockKV }),
		},
		{
			name: "KV off, autoscaled, larger batch",
			spec: with(spec(runnerTrace(t, short, 300, 2e4, 6, 2), fixed(6), RoutingLeastOutstanding, 1, 4),
				func(s *FleetSpec) {
					s.Autoscale = &AutoscaleConfig{Min: 1, Max: 5, UpDepth: 1, DownDepth: 0.5, CooldownUS: 500}
				}),
			check: need("scale-ups", func(s FleetSummary) bool { return s.ScaleUps > 0 }),
		},
		{
			name:  "stopped",
			spec:  with(spec(overloaded, fixed(4), RoutingRoundRobin, 3, 0), func(s *FleetSpec) { s.Stop = &late }),
			check: need("a stop", func(s FleetSummary) bool { return s.Stopped }),
		},
		{name: "the stopped fleet in full", spec: spec(overloaded, fixed(4), RoutingRoundRobin, 3, 0)},
		{name: "SLs outside the table", spec: spec(runnerTrace(t, long, 100, 1500, 7, 0), fixed(4), RoutingRoundRobin, 3, 0)},
		{name: "one replica, dynamic batching", spec: spec(runnerTrace(t, long, 20, 400, 8, 0), dynamic, RoutingRoundRobin, 1, 0)},
		{
			name: "disaggregated",
			spec: with(spec(runnerTrace(t, short, 120, 5000, 9, 0), fixed(4), RoutingRoundRobin, 3, 0),
				func(s *FleetSpec) { s.KV, s.Disagg = blockKV, &DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2} }),
			check: need("a disaggregated run", func(s FleetSummary) bool { return s.Disagg != "" }),
		},
	}
}

// TestRunnerMatchesSimulateFleet runs one Runner over a sequence of
// specs, twice; each summary must serialize as SimulateFleet's for the
// same spec, so no run leaks state into the next, and must still do so
// after the runner's later runs, so no summary aliases its memory. A
// second runner's whole results, every request metric included, must
// equal SimulateFleet's. The runner also reuses its price table where
// it may: it asks the profile source less often.
func TestRunnerMatchesSimulateFleet(t *testing.T) {
	hw := gpusim.VegaFE()
	var rn, whole Runner
	runnerSrc, freshSrc := &stubSource{}, &stubSource{}
	var kept []FleetSummary
	var keptBytes [][]byte
	for round := 0; round < 2; round++ {
		for _, st := range runnerSteps(t) {
			got, err := rn.Run(st.spec(runnerSrc), hw)
			if err != nil {
				t.Fatalf("%s: Runner.Run: %v", st.name, err)
			}
			res, err := SimulateFleet(st.spec(freshSrc), hw)
			if err != nil {
				t.Fatalf("%s: SimulateFleet: %v", st.name, err)
			}
			want := res.Summary()
			if st.check != nil {
				if err := st.check(want); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
			}
			gb, _ := got.Serialize()
			wb, _ := want.Serialize()
			if !bytes.Equal(gb, wb) || got.Stopped != want.Stopped {
				t.Fatalf("round %d, %s: runner summary (stopped %v)\n%s\nSimulateFleet's (stopped %v)\n%s",
					round, st.name, got.Stopped, gb, want.Stopped, wb)
			}
			kept, keptBytes = append(kept, got), append(keptBytes, gb)
			if full, err := whole.simulate(st.spec(freshSrc), hw); err != nil || !reflect.DeepEqual(full, res) {
				t.Fatalf("round %d, %s: a reused runner's result differs from SimulateFleet's (err %v)", round, st.name, err)
			}
		}
	}
	for i, s := range kept {
		if b, _ := s.Serialize(); !bytes.Equal(b, keptBytes[i]) {
			t.Fatalf("summary %d changed after later runs:\n%s\nvs\n%s", i, keptBytes[i], b)
		}
	}
	if runnerSrc.calls >= freshSrc.calls {
		t.Errorf("the runner asked its profile source %d times, fresh runs %d: no price table was reused",
			runnerSrc.calls, freshSrc.calls)
	}
}

// unhashableSource is a profile source whose dynamic type panics under
// ==: the runner must build it a new table instead of comparing it.
type unhashableSource struct {
	*stubSource
	tags []string
}

func TestRunnerUnhashableSource(t *testing.T) {
	hw := gpusim.VegaFE()
	var rn Runner
	runnerSrc, freshSrc := unhashableSource{stubSource: &stubSource{}}, unhashableSource{stubSource: &stubSource{}}
	for _, st := range runnerSteps(t)[:2] {
		got, err := rn.Run(st.spec(runnerSrc), hw)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		res, err := SimulateFleet(st.spec(freshSrc), hw)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := got.Serialize()
		wb, _ := res.Summary().Serialize()
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: runner summary\n%s\nSimulateFleet's\n%s", st.name, gb, wb)
		}
	}
	if runnerSrc.calls != freshSrc.calls {
		t.Errorf("runner made %d profile calls, fresh runs %d: a table was shared across an unhashable source",
			runnerSrc.calls, freshSrc.calls)
	}
}
