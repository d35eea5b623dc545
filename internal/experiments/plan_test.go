package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/planner"
	"seqpoint/internal/serving"
)

// TestPlanProbeDeterminism pins the probe seam's caching contract:
// each call is a pure function of its candidate and rate — under every
// routing, however calls for other candidates interleave, it answers
// what a fresh probe answers — and candidate overrides (routing,
// policy, KV capacity) actually reach the simulation. The rates
// alternate, so each call rebuilds the probe's one trace into its
// array; every summary serializes to the same bytes after the rebuilds
// that follow it, and a refused rate leaves the kept trace usable.
func TestPlanProbeDeterminism(t *testing.T) {
	lab := NewLabWith(engine.New())
	w := sweepWorkload()
	// 97 requests leave rr's cursor off zero after most runs, and three
	// replicas give po2's RNG a real choice.
	pc := PlanProbeConfig{Requests: 97, QueueCap: 32}
	probe, err := PlanProbe(lab.Engine(), w, gpusim.VegaFE(), pc)
	if err != nil {
		t.Fatal(err)
	}
	var cands []planner.Candidate
	for _, routing := range []string{"rr", "least", "jsq", "po2", "kv"} {
		for _, replicas := range []int{3, 2} {
			c := planner.Candidate{Replicas: replicas, Routing: routing}
			if routing == "kv" {
				c.KVCapacityGB = 1
			}
			cands = append(cands, c)
		}
	}
	rates := []float64{300, 500}
	want := make(map[string]serving.FleetSummary)
	type returned struct {
		sum   serving.FleetSummary
		bytes []byte
	}
	var earlier []returned
	for round := 0; round < 2; round++ {
		for _, c := range cands {
			for _, rate := range rates {
				key := fmt.Sprintf("%d×%s@%v", c.Replicas, c.Routing, rate)
				if round == 0 {
					fresh, err := PlanProbe(lab.Engine(), w, gpusim.VegaFE(), pc)
					if err != nil {
						t.Fatal(err)
					}
					if want[key], err = fresh(c, rate); err != nil {
						t.Fatal(err)
					}
				}
				got, err := probe(c, rate)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[key]) {
					t.Errorf("round %d: %s depends on the probes before it:\n%+v\nvs a fresh probe's\n%+v", round, key, got, want[key])
				}
				b, err := got.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				earlier = append(earlier, returned{got, b})
			}
		}
	}
	for i, r := range earlier {
		if b, _ := r.sum.Serialize(); !bytes.Equal(b, r.bytes) {
			t.Fatalf("summary %d serializes differently once later probes rebuilt the trace:\n%s\nvs\n%s", i, b, r.bytes)
		}
	}
	if _, err := probe(cands[0], 0); err == nil {
		t.Error("rate 0 should error")
	}
	again, err := probe(cands[0], rates[1])
	if err != nil {
		t.Fatal(err)
	}
	if key := fmt.Sprintf("%d×%s@%v", cands[0].Replicas, cands[0].Routing, rates[1]); !reflect.DeepEqual(again, want[key]) {
		t.Errorf("after a refused rate, %s reads\n%+v\nvs a fresh probe's\n%+v", key, again, want[key])
	}
	first, err := probe(planner.Candidate{Replicas: 2, Routing: "rr"}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if first.Requests != 97 || first.Replicas != 2 {
		t.Errorf("probe config did not reach the simulation: %+v", first)
	}

	// A KV-capacity override enables the cache model.
	kvSum, err := probe(planner.Candidate{Replicas: 2, Routing: "rr", KVCapacityGB: 1}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if kvSum.KVCapacityBytes != 1e9 {
		t.Errorf("KV override did not reach the simulation: capacity %v, want 1e9", kvSum.KVCapacityBytes)
	}

	// Unknown overrides surface as errors, not silent fallbacks.
	if _, err := probe(planner.Candidate{Replicas: 1, Routing: "torus"}, 300); err == nil {
		t.Error("unknown routing should error")
	}
	if _, err := probe(planner.Candidate{Replicas: 1, Routing: "rr", Policy: "magic"}, 300); err == nil {
		t.Error("unknown policy should error")
	}
}

// TestPlanSweepMonotonicity runs the suite's planner sweep end to end
// and checks the economics: a tighter p99 budget can never be served
// by a smaller fleet than a looser one.
func TestPlanSweepMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("full planner sweeps skipped in -short mode")
	}
	lab := NewLabWith(engine.New())
	w := sweepWorkload()
	res, err := PlanSweep(lab, w, gpusim.VegaFE(), 128, []float64{8, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.CapacityRPS <= 0 || res.RatePerSec <= 0 {
		t.Fatalf("capacity %v / rate %v, want > 0", res.CapacityRPS, res.RatePerSec)
	}
	loose, tight := res.Rows[0], res.Rows[1]
	if loose.P99BudgetUS <= tight.P99BudgetUS {
		t.Fatalf("budget axis not loose-to-tight: %v then %v", loose.P99BudgetUS, tight.P99BudgetUS)
	}
	if !loose.Feasible {
		t.Fatalf("the loose budget must be plannable: %+v", loose)
	}
	if tight.Feasible && tight.Replicas < loose.Replicas {
		t.Errorf("tighter budget planned fewer replicas (%d) than the looser one (%d)",
			tight.Replicas, loose.Replicas)
	}
	for _, row := range res.Rows {
		if !row.Feasible {
			continue
		}
		if row.Evaluations <= 0 || row.KneeRPS <= 0 || row.Bottleneck == "" {
			t.Errorf("feasible row missing analysis fields: %+v", row)
		}
	}

	out := res.Render()
	for _, want := range []string{"Capacity planner", "p99 budget", "bottleneck", "knee req/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	csv := res.CSV()
	if !strings.Contains(csv, "p99_budget_us,feasible,replicas,routing") {
		t.Errorf("CSV missing header:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != len(res.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d", got, len(res.Rows)+1)
	}
}

// BenchmarkPlanCapacity is the planner layer at the shape of a
// capacity plan: GNMT at batch 16 over 1,500 requests, offered 3.5× one
// replica's measured capacity, planned for a p99 of four full-batch
// service times with at most 1% drops, over two routings and up to 16
// replicas, through PlanProbe on a warm engine. probes/op counts the
// fleet simulations one plan costs; ns/op is their price, and it drops
// when verdict-only probes stop at a certain miss. One probe serves
// every iteration, so its Poisson draws, trace array, run arrays and price
// table carry over from plan to plan; BenchmarkPlanCapacityPerRequest
// is what one request pays.
func BenchmarkPlanCapacity(b *testing.B) { benchmarkPlanCapacity(b, false) }

// BenchmarkPlanCapacityPerRequest is BenchmarkPlanCapacity with a new
// probe per plan, as PlanRequest.Spec builds one per /v1/plan request:
// every plan draws its trace and grows its run arrays and price table
// anew.
func BenchmarkPlanCapacityPerRequest(b *testing.B) { benchmarkPlanCapacity(b, true) }

func benchmarkPlanCapacity(b *testing.B, probePerPlan bool) {
	lab := NewLabWith(engine.New())
	w := sweepWorkload()
	w.Batch = 16
	cfg := gpusim.VegaFE()
	run, capacity, err := calibratedRunner(lab, w, cfg, 1500)
	if err != nil {
		b.Fatal(err)
	}
	newProbe := func() planner.Probe {
		probe, err := PlanProbe(run.eng, w, cfg, PlanProbeConfig{Requests: 1500, Policy: run.policy})
		if err != nil {
			b.Fatal(err)
		}
		return probe
	}
	drop := 1.0
	spec := planner.Spec{
		SLO:         planner.SLO{LatencyP99US: 4 * float64(w.Batch) / capacity * 1e6, MaxDropRatePct: &drop},
		RatePerSec:  3.5 * capacity,
		MaxReplicas: 16,
		Routings:    []string{serving.RoutingRoundRobin, serving.RoutingPowerOfTwo},
		Probe:       newProbe(),
	}
	// One plan warms the profile cache, so iterations measure the search
	// and its simulations, not first-touch profiling.
	if _, err := planner.Solve(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		if probePerPlan {
			spec.Probe = newProbe()
		}
		plan, err := planner.Solve(spec)
		if err != nil {
			b.Fatal(err)
		}
		probes += plan.Evaluations
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}
