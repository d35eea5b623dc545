package server

import (
	"bytes"
	"fmt"
	"testing"

	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/planner"
	"seqpoint/internal/serving"
	"seqpoint/internal/trainer"
	"seqpoint/internal/workload"
)

// FuzzPlanVerdictOnly holds the planner's verdict-only probes to the
// full runs they replace, and its prepared probe to fresh runs. Each
// input is a seeded plan request, resolved through PlanRequest.Spec:
// routings rr, least, jsq and po2, plus kv under the KV model; bounded
// and unbounded queues; no drop cap, a 0% or a 1% one; latency and TTFT
// targets. Solve with the probe as built, which hands each verdict-only
// candidate's stop rule to the fleet, must serialize the same Plan, or
// fail with the same error, as Solve through a wrapper that clears the
// rule so that every probe runs to the end, and as Solve through
// freshPlanProbe, which shares no trace, run array or price table
// between calls.
func FuzzPlanVerdictOnly(f *testing.F) {
	f.Add(int64(1), uint16(750), uint8(97), uint8(0), uint8(0), uint8(0), uint16(119))
	f.Add(int64(1), uint16(750), uint8(97), uint8(3), uint8(0), uint8(2), uint16(119))
	f.Add(int64(7), uint16(1550), uint8(140), uint8(9), uint8(12), uint8(2), uint16(61))
	f.Add(int64(3), uint16(1150), uint8(60), uint8(18), uint8(8), uint8(4), uint16(91))
	f.Add(int64(5), uint16(600), uint8(80), uint8(36), uint8(0), uint8(9), uint16(151))
	f.Add(int64(11), uint16(2000), uint8(120), uint8(28), uint8(6), uint8(29), uint16(43))
	f.Add(int64(2), uint16(400), uint8(40), uint8(1), uint8(0), uint8(15), uint16(200))

	eng := engine.New()
	f.Fuzz(func(t *testing.T, seed int64, rate uint16, n, routings, queueCap, slo uint8, budgetMS uint16) {
		req := PlanRequest{
			WorkloadSpec: WorkloadSpec{
				Model:    "gnmt",
				Rate:     float64(rate%2400) + 50,
				Batch:    4,
				Requests: int(n)%160 + 16,
				SeqLens:  testSeqLens,
				Seed:     seed,
			},
			MaxReplicas: 8,
			QueueCap:    int(queueCap) % 24,
		}
		names := []string{serving.RoutingRoundRobin, serving.RoutingLeastOutstanding, serving.RoutingJSQ, serving.RoutingPowerOfTwo}
		kv := slo&1 != 0
		if kv {
			gb := 0.05 * float64(int(slo>>5)%4+1)
			req.KVCapacityGB = &gb
			req.DecodeSteps = 8
			names = append(names, serving.RoutingKV)
		}
		req.Routings = []string{names[int(routings)%len(names)]}
		if second := names[int(routings/8)%len(names)]; second != req.Routings[0] {
			req.Routings = append(req.Routings, second)
		}
		if budgetMS%5 != 0 {
			req.SLO.LatencyP99US = float64(budgetMS%400+1) * 1000
		}
		switch (slo >> 1) % 3 {
		case 1:
			req.SLO.MaxDropRatePct = new(float64)
		case 2:
			one := 1.0
			req.SLO.MaxDropRatePct = &one
		}
		if kv && slo&8 != 0 {
			req.SLO.TTFTP99US = float64(budgetMS%200+1) * 1000
		}
		if req.SLO.LatencyP99US == 0 && req.SLO.MaxDropRatePct == nil && req.SLO.TTFTP99US == 0 {
			req.SLO.MinThroughputRPS = req.Rate / 4
		}
		spec, _, err := req.Spec(eng)
		if err != nil {
			t.Skip(err)
		}

		plan, err := planner.Solve(spec)
		full := spec
		full.Probe = func(c planner.Candidate, rate float64) (serving.FleetSummary, error) {
			c.Stop = nil
			return spec.Probe(c, rate)
		}
		want, wantErr := planner.Solve(full)
		samePlan(t, "verdict-only probes", plan, err, "full probes", want, wantErr)
		fresh := spec
		fresh.Probe = freshPlanProbe(t, eng, req)
		want, wantErr = planner.Solve(fresh)
		samePlan(t, "the prepared probe", plan, err, "fresh probes", want, wantErr)
	})
}

// samePlan requires two Solve outcomes to serialize the same plan or
// fail with the same error.
func samePlan(t *testing.T, name string, plan planner.Plan, err error, wantName string, want planner.Plan, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: err %v; %s: err %v", name, err, wantName, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s fail with\n%v\n%s with\n%v", name, err, wantName, wantErr)
		}
	default:
		got, _ := plan.Serialize()
		exp, _ := want.Serialize()
		if !bytes.Equal(got, exp) {
			t.Fatalf("%s plan\n%s\n%s plan\n%s", name, got, wantName, exp)
		}
	}
}

// freshPlanProbe is the probe PlanRequest.Spec builds for a Poisson
// plan request, rebuilt from its parts with nothing kept between calls:
// each call generates its trace with workload.PoissonTrace and runs
// serving.SimulateFleet on fresh arrays and a fresh price table.
func freshPlanProbe(t *testing.T, src trainer.ProfileSource, req PlanRequest) planner.Probe {
	t.Helper()
	r := req.normalize()
	w, hw, base, _, err := buildWorkloadSetup(r.WorkloadSpec)
	if err != nil {
		t.Fatal(err)
	}
	return func(c planner.Candidate, rate float64) (serving.FleetSummary, error) {
		trace, err := workload.PoissonTrace(w.Train, r.Requests, rate, r.Seed)
		if err != nil {
			return serving.FleetSummary{}, err
		}
		policy := base
		if c.Policy != "" {
			if policy, err = serving.ParsePolicy(c.Policy, r.Batch, *r.TimeoutUS); err != nil {
				return serving.FleetSummary{}, err
			}
		}
		router, err := serving.ParseRouting(c.Routing, r.Seed)
		if err != nil {
			return serving.FleetSummary{}, err
		}
		kv := r.kvConfig()
		if c.KVCapacityGB > 0 {
			k := serving.KVConfig{DecodeSteps: experiments.DefaultKVDecodeSteps}
			if kv != nil {
				k = *kv
			}
			k.CapacityBytes = c.KVCapacityGB * 1e9
			kv = &k
		}
		res, err := serving.SimulateFleet(serving.FleetSpec{
			Model: w.Model, Trace: trace, Policy: policy, Router: router, Replicas: c.Replicas,
			QueueCap: r.QueueCap, Profiles: src, KV: kv, Stop: c.Stop,
		}, hw)
		if err != nil {
			return serving.FleetSummary{}, fmt.Errorf("experiments: plan probe %s ×%d %s: %w", w.Name, c.Replicas, c.Routing, err)
		}
		return res.Summary(), nil
	}
}
