package planner_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"seqpoint/internal/planner"
	"seqpoint/internal/serving"
)

// fakeCapacityRPS is the analytic probe's per-replica capacity.
const fakeCapacityRPS = 100.0

// fakeProbe models an M/M/n-flavored fleet analytically: utilization
// rho = rate / (n × capacity), p99 grows as 1/(1-rho), overload drops
// the excess. Deterministic, instant, and monotone in replicas — the
// properties the planner's search relies on.
func fakeProbe(c planner.Candidate, rate float64) (serving.FleetSummary, error) {
	agg := fakeCapacityRPS * float64(c.Replicas)
	rho := rate / agg
	sum := serving.FleetSummary{
		Replicas: c.Replicas,
		Routing:  c.Routing,
		Policy:   "policy:" + c.Policy,
		Requests: 1000,
		Served:   1000,
	}
	if rho > 1 {
		sum.ThroughputRPS = agg
		sum.Served = int(1000 / rho)
		sum.Rejected = 1000 - sum.Served
		sum.DropRatePct = float64(sum.Rejected) / 10
	} else {
		sum.ThroughputRPS = rate
	}
	headway := math.Max(0.05, 1-rho)
	sum.P99LatencyUS = 1000 / headway
	if c.Policy == "fixed" {
		sum.P99LatencyUS *= 10
	}
	sum.MeanLatencyUS = sum.P99LatencyUS / 2
	sum.MeanWaitUS = sum.MeanLatencyUS * math.Min(rho, 1)
	sum.UtilizationPct = math.Min(rho, 1) * 100
	sum.ReplicaSeconds = 10 * float64(c.Replicas)
	if c.KVCapacityGB > 0 {
		sum.KVCapacityBytes = c.KVCapacityGB * 1e9
		sum.KVPeakBytes = 0.5e9
		sum.P99TTFTUS = sum.P99LatencyUS / 2
	}
	return sum, nil
}

// bruteMinimal finds the smallest feasible replica count by linear
// scan — the ground truth the binary search must match.
func bruteMinimal(t *testing.T, slo planner.SLO, routing string, rate float64, maxReplicas int) int {
	t.Helper()
	for n := 1; n <= maxReplicas; n++ {
		sum, err := fakeProbe(planner.Candidate{Replicas: n, Routing: routing}, rate)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := slo.Check(sum); ok {
			return n
		}
	}
	return 0
}

func TestSolveMinimality(t *testing.T) {
	// rho must reach 0.6 for p99 = 1000/0.4 = 2500: five replicas at
	// 300 rps. Four gives rho 0.75 → p99 4000, a violation.
	slo := planner.SLO{LatencyP99US: 2500, MinThroughputRPS: 290}
	plan, err := planner.Solve(planner.Spec{
		SLO:        slo,
		RatePerSec: 300,
		Routings:   []string{serving.RoutingRoundRobin},
		Probe:      fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteMinimal(t, slo, serving.RoutingRoundRobin, 300, planner.DefaultMaxReplicas)
	if want == 0 {
		t.Fatal("brute force found no feasible replica count; test SLO is broken")
	}
	if plan.Replicas != want {
		t.Errorf("planned %d replicas, brute-force minimum is %d", plan.Replicas, want)
	}
	if plan.Replicas != 5 {
		t.Errorf("planned %d replicas, analytic expectation is 5", plan.Replicas)
	}
	// One below must violate the SLO.
	below, err := fakeProbe(planner.Candidate{Replicas: plan.Replicas - 1, Routing: plan.Routing}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slo.Check(below); ok {
		t.Errorf("%d replicas also meet the SLO; plan is not minimal", plan.Replicas-1)
	}
	if plan.CostReplicaSeconds != 10*float64(plan.Replicas) {
		t.Errorf("cost = %v, want %v", plan.CostReplicaSeconds, 10*float64(plan.Replicas))
	}
	if plan.Evaluations <= 0 {
		t.Error("plan reports no probe evaluations")
	}
	if len(plan.SLO) != 2 {
		t.Fatalf("plan reports %d SLO dimensions, want 2", len(plan.SLO))
	}
	for _, d := range plan.SLO {
		if !d.OK || d.HeadroomPct < 0 {
			t.Errorf("dimension %s not met at the chosen point: %+v", d.Name, d)
		}
	}
}

func TestSolveConvergence(t *testing.T) {
	// The binary search must not degrade to a linear scan: one routing
	// over 64 replicas is 1 ceiling probe + ≤6 bisection probes, plus
	// ≤1+KneeIters knee probes.
	plan, err := planner.Solve(planner.Spec{
		SLO:         planner.SLO{LatencyP99US: 2500},
		RatePerSec:  300,
		MaxReplicas: 64,
		Routings:    []string{serving.RoutingRoundRobin},
		Probe:       fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxEvals := 7 + 1 + planner.DefaultKneeIters; plan.Evaluations > maxEvals {
		t.Errorf("search spent %d evaluations over 64 replicas, want <= %d", plan.Evaluations, maxEvals)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// p99 is at least 1000µs at any replica count, so 900 is hopeless.
	_, err := planner.Solve(planner.Spec{
		SLO:        planner.SLO{LatencyP99US: 900},
		RatePerSec: 300,
		Probe:      fakeProbe,
	})
	if !errors.Is(err, planner.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if !strings.Contains(err.Error(), "latency_p99_us") {
		t.Errorf("infeasibility message should name the violated target: %v", err)
	}
}

func TestSolveTieBreaks(t *testing.T) {
	// The fake probe is routing-oblivious, so every routing needs the
	// same replica count and the first axis entry must win.
	plan, err := planner.Solve(planner.Spec{
		SLO:        planner.SLO{LatencyP99US: 2500},
		RatePerSec: 300,
		Routings:   []string{serving.RoutingJSQ, serving.RoutingRoundRobin},
		Probe:      fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Routing != serving.RoutingJSQ {
		t.Errorf("routing = %q, want the first axis entry %q", plan.Routing, serving.RoutingJSQ)
	}

	// KV capacities tie-break ascending: both sizes feasible, the
	// smaller (cheaper) one wins even when listed second.
	plan, err = planner.Solve(planner.Spec{
		SLO:            planner.SLO{LatencyP99US: 2500},
		RatePerSec:     300,
		Routings:       []string{serving.RoutingRoundRobin},
		KVCapacitiesGB: []float64{4, 2},
		Probe:          fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.KVCapacityGB != 2 {
		t.Errorf("kv capacity = %v GB, want the smaller feasible size 2", plan.KVCapacityGB)
	}
}

func TestSolvePolicyAxis(t *testing.T) {
	// "fixed" inflates p99 10×, so only "dynamic" meets the target;
	// the plan must carry the resolved policy name from the summary.
	plan, err := planner.Solve(planner.Spec{
		SLO:        planner.SLO{LatencyP99US: 2500},
		RatePerSec: 300,
		Routings:   []string{serving.RoutingRoundRobin},
		Policies:   []string{"fixed", "dynamic"},
		Probe:      fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Policy != "policy:dynamic" {
		t.Errorf("policy = %q, want the feasible override's resolved name", plan.Policy)
	}
}

func TestSaturationKnee(t *testing.T) {
	// Drop-rate-only SLO: drops start past rho = 1, and stay under 10%
	// until rho = 1/0.9 ≈ 1.11. The minimal fleet runs at rho ≈ 1, so
	// the knee sits near 1.11× the planned rate.
	maxDrop := 10.0
	plan, err := planner.Solve(planner.Spec{
		SLO:        planner.SLO{MaxDropRatePct: &maxDrop},
		RatePerSec: 300,
		Routings:   []string{serving.RoutingRoundRobin},
		Probe:      fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Replicas != 3 {
		t.Fatalf("planned %d replicas, analytic expectation is 3", plan.Replicas)
	}
	knee := plan.Saturation.KneeFactor
	if knee < 1.05 || knee > 1.2 {
		t.Errorf("knee factor = %v, want ≈ 1.11", knee)
	}
	if plan.Saturation.KneeCapped {
		t.Error("knee should not be capped: overload breaks the SLO well before 4×")
	}
	if plan.Saturation.KneeRPS != 300*knee {
		t.Errorf("knee rps %v != rate × factor %v", plan.Saturation.KneeRPS, 300*knee)
	}

	// A throughput-only floor stays met at any overload (throughput
	// saturates, never drops below capacity): the knee caps out.
	plan, err = planner.Solve(planner.Spec{
		SLO:        planner.SLO{MinThroughputRPS: 100},
		RatePerSec: 300,
		Routings:   []string{serving.RoutingRoundRobin},
		Probe:      fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Saturation.KneeCapped || plan.Saturation.KneeFactor != planner.DefaultKneeFactorMax {
		t.Errorf("want capped knee at %v×, got %+v", planner.DefaultKneeFactorMax, plan.Saturation)
	}
}

func TestSaturationBottleneck(t *testing.T) {
	// A constant-summary probe isolates the bottleneck classification
	// from the search: every candidate is feasible, and the summary's
	// utilization/wait/KV mix decides the label.
	base := serving.FleetSummary{
		Requests:       100,
		Served:         100,
		ThroughputRPS:  500,
		UtilizationPct: 50,
		MeanWaitUS:     100,
		MeanLatencyUS:  1000,
		P99LatencyUS:   2000,
		ReplicaSeconds: 1,
	}
	cases := []struct {
		name   string
		mutate func(*serving.FleetSummary)
		want   string
	}{
		{"compute dominates", func(*serving.FleetSummary) {}, planner.BottleneckCompute},
		{"wait share dominates", func(s *serving.FleetSummary) { s.MeanWaitUS = 800 }, planner.BottleneckQueue},
		{"drops force queue", func(s *serving.FleetSummary) { s.Served, s.Rejected = 95, 5 }, planner.BottleneckQueue},
		{"kv occupancy dominates", func(s *serving.FleetSummary) {
			s.KVCapacityBytes = 1e9
			s.KVPeakBytes = 0.9e9
		}, planner.BottleneckKVBytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := base
			tc.mutate(&sum)
			plan, err := planner.Solve(planner.Spec{
				SLO:        planner.SLO{MinThroughputRPS: 100},
				RatePerSec: 300,
				Routings:   []string{serving.RoutingRoundRobin},
				Probe: func(c planner.Candidate, rate float64) (serving.FleetSummary, error) {
					s := sum
					s.Replicas = c.Replicas
					return s, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Saturation.Bottleneck != tc.want {
				t.Errorf("bottleneck = %q, want %q (saturation %+v)", plan.Saturation.Bottleneck, tc.want, plan.Saturation)
			}
		})
	}
}

func TestTTFTNeedsKV(t *testing.T) {
	// A TTFT target against a KV-less probe is a configuration error,
	// not an infeasibility.
	_, err := planner.Solve(planner.Spec{
		SLO:        planner.SLO{TTFTP99US: 5000},
		RatePerSec: 300,
		Routings:   []string{serving.RoutingRoundRobin},
		Probe:      fakeProbe,
	})
	if err == nil || errors.Is(err, planner.ErrInfeasible) {
		t.Fatalf("want a KV-model error, got %v", err)
	}
	if !strings.Contains(err.Error(), "KV") {
		t.Errorf("error should mention the KV model: %v", err)
	}

	// With a KV axis the probe reports TTFT and the target is solvable.
	plan, err := planner.Solve(planner.Spec{
		SLO:            planner.SLO{TTFTP99US: 5000},
		RatePerSec:     300,
		Routings:       []string{serving.RoutingRoundRobin},
		KVCapacitiesGB: []float64{1},
		Probe:          fakeProbe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Saturation.KVPct != 50 {
		t.Errorf("kv pct = %v, want 50 (0.5GB peak of 1GB)", plan.Saturation.KVPct)
	}
}

func TestSpecValidation(t *testing.T) {
	base := planner.Spec{
		SLO:        planner.SLO{LatencyP99US: 2500},
		RatePerSec: 300,
		Probe:      fakeProbe,
	}
	cases := []struct {
		name   string
		mutate func(*planner.Spec)
		want   string
	}{
		{"nil probe", func(s *planner.Spec) { s.Probe = nil }, "needs a probe"},
		{"zero rate", func(s *planner.Spec) { s.RatePerSec = 0 }, "rate"},
		{"nan rate", func(s *planner.Spec) { s.RatePerSec = math.NaN() }, "rate"},
		{"empty slo", func(s *planner.Spec) { s.SLO = planner.SLO{} }, "at least one target"},
		{"negative target", func(s *planner.Spec) { s.SLO.LatencyP99US = -1 }, "latency_p99_us"},
		{"negative max replicas", func(s *planner.Spec) { s.MaxReplicas = -2 }, "max replicas"},
		{"negative kv", func(s *planner.Spec) { s.KVCapacitiesGB = []float64{-1} }, "kv capacity"},
		{"knee factor", func(s *planner.Spec) { s.KneeFactorMax = 0.5 }, "knee factor"},
		{"knee iters", func(s *planner.Spec) { s.KneeIters = -1 }, "knee iters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mutate(&spec)
			_, err := planner.Solve(spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}

	bad := 150.0
	spec := base
	spec.SLO = planner.SLO{MaxDropRatePct: &bad}
	if _, err := planner.Solve(spec); err == nil || !strings.Contains(err.Error(), "max_drop_rate_pct") {
		t.Errorf("drop rate over 100%% should fail validation, got %v", err)
	}
}

func TestCheckZeroServed(t *testing.T) {
	// Vacuous zero percentiles must not pass latency targets.
	slo := planner.SLO{LatencyP99US: 1000}
	dims, ok := slo.Check(serving.FleetSummary{Requests: 10, Served: 0})
	if ok {
		t.Error("a summary that served nothing cannot meet a latency target")
	}
	if len(dims) != 1 || dims[0].OK {
		t.Errorf("dims = %+v", dims)
	}
}

func TestProbeErrorPropagates(t *testing.T) {
	boom := errors.New("probe exploded")
	_, err := planner.Solve(planner.Spec{
		SLO:        planner.SLO{LatencyP99US: 2500},
		RatePerSec: 300,
		Routings:   []string{serving.RoutingRoundRobin},
		Probe: func(planner.Candidate, float64) (serving.FleetSummary, error) {
			return serving.FleetSummary{}, boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("probe error should propagate, got %v", err)
	}
	if errors.Is(err, planner.ErrInfeasible) {
		t.Error("a probe failure is not an infeasibility")
	}
}

// TestSolveMarksVerdictOnlyProbes pins which probes may stop early:
// every knee probe, every bisection mid-point, and a ceiling probe only
// once some combination is feasible — before that, a failing ceiling's
// summary may be the closest one the infeasibility error names. The
// rule carries the SLO's latency and drop caps, and an SLO with neither
// stops nothing.
func TestSolveMarksVerdictOnlyProbes(t *testing.T) {
	noDrops := 0.0
	type call struct {
		c    planner.Candidate
		rate float64
	}
	solve := func(slo planner.SLO) []call {
		var calls []call
		_, err := planner.Solve(planner.Spec{
			SLO:         slo,
			RatePerSec:  300,
			MaxReplicas: 8,
			// fakeProbe's "fixed" is ten times slower, so both fixed
			// combinations fail at the ceiling before "" finds a plan.
			Policies: []string{"fixed", ""},
			Routings: []string{serving.RoutingRoundRobin, serving.RoutingJSQ},
			Probe: func(c planner.Candidate, rate float64) (serving.FleetSummary, error) {
				calls = append(calls, call{c, rate})
				return fakeProbe(c, rate)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}

	calls := solve(planner.SLO{LatencyP99US: 2500, MaxDropRatePct: &noDrops, MinThroughputRPS: 100})
	searched := make(map[[2]string]bool)
	var ceilings, stopped int
	for i, cl := range calls {
		// A combination's first probe at the planned rate is its
		// ceiling. The first three (fixed/rr, fixed/jsq, then ""/rr,
		// which finds the first plan) come before any plan exists.
		combo := [2]string{cl.c.Policy, cl.c.Routing}
		ceiling := cl.rate == 300 && !searched[combo]
		searched[combo] = true
		fullRun := ceiling && ceilings < 3
		if ceiling {
			ceilings++
		}
		switch {
		case fullRun && cl.c.Stop != nil:
			t.Errorf("call %d (%d×%s %q at %v rps) is a ceiling before any plan, but carries a stop rule", i, cl.c.Replicas, cl.c.Routing, cl.c.Policy, cl.rate)
		case !fullRun && cl.c.Stop == nil:
			t.Errorf("call %d (%d×%s %q at %v rps) is read for its verdict alone, but carries no stop rule", i, cl.c.Replicas, cl.c.Routing, cl.c.Policy, cl.rate)
		case cl.c.Stop != nil:
			stopped++
			if cl.c.Stop.P99LatencyUS != 2500 || cl.c.Stop.MaxDropRatePct == nil || *cl.c.Stop.MaxDropRatePct != 0 {
				t.Errorf("call %d stop rule %+v, want the SLO's 2500 µs and 0%% caps", i, *cl.c.Stop)
			}
		}
	}
	if ceilings != 4 || stopped == 0 {
		t.Fatalf("saw %d ceiling probes and %d verdict-only ones in %d calls; the search shape changed", ceilings, stopped, len(calls))
	}

	for i, cl := range solve(planner.SLO{MinThroughputRPS: 100}) {
		if cl.c.Stop != nil {
			t.Errorf("call %d carries a stop rule, but the SLO caps neither latency nor drops", i)
		}
	}
}

// TestSolveRefusesStoppedPlan: a stopped run must miss the SLO, so a
// probe returning a stopped summary that meets it is a broken probe, not
// a plan.
func TestSolveRefusesStoppedPlan(t *testing.T) {
	_, err := planner.Solve(planner.Spec{
		SLO:        planner.SLO{LatencyP99US: 2500},
		RatePerSec: 300,
		Routings:   []string{serving.RoutingRoundRobin},
		Probe: func(c planner.Candidate, rate float64) (serving.FleetSummary, error) {
			sum, err := fakeProbe(c, rate)
			sum.Stopped = c.Stop != nil
			return sum, err
		},
	})
	if err == nil || errors.Is(err, planner.ErrInfeasible) || !strings.Contains(err.Error(), "stop rule") {
		t.Fatalf("err = %v, want a refusal naming the stop rule", err)
	}
}
