package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/planner"
	"seqpoint/internal/server"
	"seqpoint/internal/serving"
	"seqpoint/internal/workload"
)

// TestBadModeFlags pins the three-way mode × flag-group matrix:
// serving-shared flags work in -serve and -plan, fleet-shape flags are
// serve-only (the planner chooses the fleet), SLO flags are plan-only,
// and training flags belong to the default mode.
func TestBadModeFlags(t *testing.T) {
	cases := []struct {
		name    string
		mode    string
		visited []string
		wantBad []string
		hintHas string
	}{
		{"clean train", "train", []string{"model", "epochs", "gpus", "o"}, nil, ""},
		{"clean serve", "serve", []string{"serve", "rate", "policy", "replicas", "routing", "kv-capacity-gb"}, nil, ""},
		{"clean plan", "plan", []string{"plan", "rate", "policy", "queue-cap", "kv-capacity-gb", "slo-p99-us", "plan-max-replicas"}, nil, ""},
		{"serving flags without a serving mode", "train", []string{"rate", "requests"}, []string{"-rate", "-requests"}, "-serve or -plan"},
		{"slo flags without plan", "train", []string{"slo-min-rps"}, []string{"-slo-min-rps"}, "-serve or -plan"},
		{"train flags under serve", "serve", []string{"serve", "gpus", "topology"}, []string{"-gpus", "-topology"}, "do not apply to -serve"},
		{"plan flags under serve", "serve", []string{"serve", "slo-p99-us", "plan-routings"}, []string{"-slo-p99-us", "-plan-routings"}, "need -plan"},
		{"fleet shape under plan", "plan", []string{"plan", "replicas", "routing", "autoscale"}, []string{"-replicas", "-routing", "-autoscale"}, "planner chooses the fleet shape"},
		{"train flags under plan", "plan", []string{"plan", "epochs"}, []string{"-epochs"}, "do not apply to -plan"},
		{"profiling flags valid everywhere", "plan", []string{"plan", "cpuprofile", "memprofile", "parallelism", "slo-p99-us"}, nil, ""},
		{"clean multi-tenant serve", "serve", []string{"serve", "rate", "policy", "tenants", "pattern", "trace-out"}, nil, ""},
		{"clean replay serve", "serve", []string{"serve", "trace-in", "policy"}, nil, ""},
		{"workload flags without a serving mode", "train", []string{"tenants", "pattern"}, []string{"-tenants", "-pattern"}, "-serve or -plan"},
		{"trace files without a serving mode", "train", []string{"trace-out", "trace-in"}, []string{"-trace-out", "-trace-in"}, "-serve or -plan"},
		{"workload flags under plan", "plan", []string{"plan", "tenants", "pattern", "slo-p99-us"}, []string{"-tenants", "-pattern"}, "probe traces"},
		{"trace files under plan", "plan", []string{"plan", "trace-in", "trace-out", "slo-min-rps"}, []string{"-trace-in", "-trace-out"}, "do not apply to -plan"},
		{"chrome trace flags are train-only", "serve", []string{"serve", "trace-sl", "trace-o"}, []string{"-trace-sl", "-trace-o"}, "do not apply to -serve"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad, hint := badModeFlags(tc.mode, tc.visited)
			if !reflect.DeepEqual(bad, tc.wantBad) {
				t.Errorf("bad = %v, want %v", bad, tc.wantBad)
			}
			if tc.hintHas == "" {
				if hint != "" {
					t.Errorf("hint = %q, want empty", hint)
				}
			} else if !strings.Contains(hint, tc.hintHas) {
				t.Errorf("hint %q missing %q", hint, tc.hintHas)
			}
		})
	}
}

// testFlags returns the serving flags the tests start from, as flag
// parsing leaves them: gnmt on config #1 at batch 8 and seed 1, a
// 48-request trace at 300 req/s through a dynamic policy with a 20 ms
// window, one replica, and no SLO.
func testFlags() servingFlags {
	timeout := 20000.0
	return servingFlags{
		ws: server.WorkloadSpec{
			Model: "gnmt", Config: "#1", Rate: 300, Batch: 8, Policy: "dynamic",
			TimeoutUS: &timeout, Requests: 48, Seed: 1,
		},
		fleet:   server.FleetRequest{Replicas: 1, Routing: serving.RoutingRoundRobin},
		plan:    server.PlanRequest{MaxReplicas: planner.DefaultMaxReplicas},
		sloDrop: -1,
	}
}

// runFlags maps f onto its request and runs it the way main does.
func runFlags(f servingFlags, plan bool, traceOut string) error {
	req, err := f.request(plan)
	if err != nil {
		return err
	}
	switch req := req.(type) {
	case server.PlanRequest:
		return runPlan(req)
	case server.FleetRequest:
		return runFleet(req, traceOut)
	default:
		return runServe(req.(server.ServeRequest), traceOut)
	}
}

// serveSpec maps f onto a single-queue request and resolves it.
func serveSpec(t *testing.T, f servingFlags) (serving.Spec, error) {
	t.Helper()
	req, err := f.request(false)
	if err != nil {
		return serving.Spec{}, err
	}
	sr, ok := req.(server.ServeRequest)
	if !ok {
		t.Fatalf("flags mapped to %T, want a single-queue request", req)
	}
	spec, _, err := sr.Spec(engine.Shared())
	return spec, err
}

// TestRunPlan drives the planning entry point end to end (output goes
// to stdout; errors are what we assert on).
func TestRunPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("full planning searches skipped in -short mode")
	}
	plan := func(edit func(f *servingFlags)) error {
		f := testFlags()
		f.ws.Batch = 16
		f.plan.MaxReplicas = 4
		// Feasible: a loose latency target plus a throughput floor.
		f.plan.SLO.LatencyP99US, f.plan.SLO.MinThroughputRPS = 500_000, 100
		edit(&f)
		return runFlags(f, true, "")
	}
	if err := plan(func(*servingFlags) {}); err != nil {
		t.Errorf("runPlan: %v", err)
	}
	// An explicit routing axis and a bounded queue.
	if err := plan(func(f *servingFlags) { f.fleet.QueueCap, f.planRoutings = 32, "rr,jsq" }); err != nil {
		t.Errorf("runPlan with routings: %v", err)
	}
	// The KV model brings TTFT targets into play.
	if err := plan(func(f *servingFlags) {
		f.kvCapGB, f.ws.DecodeSteps = 0.5, 16
		f.plan.SLO = server.PlanSLO{TTFTP99US: 1e9, MinThroughputRPS: 10}
	}); err != nil {
		t.Errorf("runPlan kv: %v", err)
	}

	// Error paths: bad config, empty SLO, unknown model/policy/routing,
	// infeasible target.
	for name, edit := range map[string]func(f *servingFlags){
		"config out of range": func(f *servingFlags) { f.ws.Config = "#9" },
		"empty SLO":           func(f *servingFlags) { f.plan.SLO = server.PlanSLO{} },
		"cnn is not servable": func(f *servingFlags) { f.ws.Model = "cnn" },
		"unknown policy":      func(f *servingFlags) { f.ws.Policy = "magic" },
		"unknown routing":     func(f *servingFlags) { f.planRoutings = "rr,torus" },
		"impossible latency": func(f *servingFlags) {
			f.plan.SLO, f.plan.MaxReplicas, f.planRoutings = server.PlanSLO{LatencyP99US: 1}, 2, "rr"
		},
		"negative max replicas": func(f *servingFlags) { f.plan.MaxReplicas = -1 },
	} {
		if err := plan(edit); err == nil {
			t.Errorf("%s: runPlan should error", name)
		}
	}
	// The empty-SLO error names the flags that set a target.
	if err := plan(func(f *servingFlags) { f.plan.SLO = server.PlanSLO{} }); err == nil || !strings.Contains(err.Error(), "-slo-min-rps") {
		t.Errorf("empty SLO error %v does not name the -slo-* flags", err)
	}
}

func TestKVFromFlags(t *testing.T) {
	spec, err := serveSpec(t, testFlags())
	if err != nil || spec.KV != nil {
		t.Fatalf("no KV flags should mean no KV model: %+v, %v", spec.KV, err)
	}
	f := testFlags()
	f.ws.DecodeSteps = 8
	if _, err := serveSpec(t, f); err == nil {
		t.Error("-decode-steps without -kv-capacity-gb should error")
	}

	fleet := func(capGB float64, steps int, preempt, disagg string, replicas int) (serving.FleetSpec, error) {
		f := testFlags()
		f.kvCapGB, f.ws.DecodeSteps, f.ws.KVPreempt, f.disagg, f.fleet.Replicas = capGB, steps, preempt, disagg, replicas
		req, err := f.request(false)
		if err != nil {
			return serving.FleetSpec{}, err
		}
		spec, _, err := req.(server.FleetRequest).Spec(engine.Shared())
		return spec, err
	}
	fs, err := fleet(0.5, 8, "block", "1:2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if kv := fs.KV; kv == nil || kv.CapacityBytes != 0.5e9 || kv.DecodeSteps != 8 || kv.Preempt != serving.PreemptBlock {
		t.Errorf("kv = %+v", kv)
	}
	if dis := fs.Disagg; dis == nil || dis.PrefillReplicas != 1 || dis.DecodeReplicas != 2 {
		t.Errorf("disagg = %+v", dis)
	}
	if _, err := fleet(0.5, 8, "", "1:3", 3); err == nil {
		t.Error("pools not summing to replicas should error")
	}
	if _, err := fleet(0.5, 0, "", "nope", 2); err == nil {
		t.Error("malformed -disagg should error")
	}
}

func TestClusterFromFlags(t *testing.T) {
	cl, err := clusterFromFlags(1, "ring", 25, 1.5, 0.5)
	if err != nil || cl.GPUs != 1 {
		t.Fatalf("single GPU: %+v, %v", cl, err)
	}
	cl, err = clusterFromFlags(4, "mesh", 50, 1.0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if cl.GPUs != 4 || cl.Topology != gpusim.TopologyFullMesh || cl.LinkGBps != 50 {
		t.Errorf("cluster = %+v", cl)
	}
	if _, err := clusterFromFlags(4, "torus", 25, 1.5, 0.5); err == nil {
		t.Error("unknown topology should error")
	}
	if _, err := clusterFromFlags(4, "ring", -1, 1.5, 0.5); err == nil {
		t.Error("negative bandwidth should error")
	}
}

// TestRunServeAndFleet drives the two serving entry points end to end
// (output goes to stdout; errors are what we assert on).
func TestRunServeAndFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving simulations skipped in -short mode")
	}
	run := func(edit func(f *servingFlags)) error {
		f := testFlags()
		edit(&f)
		return runFlags(f, false, "")
	}
	kv := func(f *servingFlags) { f.kvCapGB, f.ws.DecodeSteps = 0.05, 16 }
	for name, edit := range map[string]func(f *servingFlags){
		"serve": func(*servingFlags) {},
		"fleet": func(f *servingFlags) {
			f.ws.Rate, f.fleet.Replicas, f.fleet.Routing, f.fleet.QueueCap = 600, 3, "jsq", 64
		},
		"fleet autoscale": func(f *servingFlags) {
			f.ws.Rate, f.fleet.Replicas, f.fleet.Routing, f.autoscale = 600, 2, "po2", true
		},
		"serve kv": kv,
		"fleet kv routing": func(f *servingFlags) {
			kv(f)
			f.ws.Rate, f.fleet.Replicas, f.fleet.Routing, f.fleet.QueueCap = 600, 3, "kv", 64
		},
		"fleet disagg": func(f *servingFlags) {
			kv(f)
			f.ws.Rate, f.fleet.Replicas, f.fleet.QueueCap, f.disagg = 600, 3, 64, "1:2"
		},
	} {
		if err := run(edit); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// Error paths: bad config, model, policy, routing, rate.
	fleet := func(f *servingFlags) { f.fleet.Replicas, f.fleet.Routing = 2, "rr" }
	for name, edit := range map[string]func(f *servingFlags){
		"serve config out of range": func(f *servingFlags) { f.ws.Config = "#9" },
		"fleet config out of range": func(f *servingFlags) { fleet(f); f.ws.Config = "#0" },
		"cnn is not servable":       func(f *servingFlags) { fleet(f); f.ws.Model = "cnn" },
		"unknown policy":            func(f *servingFlags) { fleet(f); f.ws.Policy = "magic" },
		"unknown routing":           func(f *servingFlags) { fleet(f); f.fleet.Routing = "torus" },
		"negative rate":             func(f *servingFlags) { fleet(f); f.ws.Rate = -5 },
	} {
		if err := run(edit); err == nil {
			t.Errorf("%s: run should error", name)
		}
	}
}

// TestParseTenants pins the -tenants cohort grammar and its mapping:
// equal-weight cohorts that draw from the corpus pool.
func TestParseTenants(t *testing.T) {
	w, err := experiments.ServedWorkloadByName("gnmt", 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := make(map[int]bool)
	for _, sl := range w.Train.Lengths {
		pool[sl] = true
	}
	f := testFlags()
	f.tenants = "chat=3, bulk=1"
	req, err := f.request(false)
	if err != nil {
		t.Fatal(err)
	}
	want := []server.TenantSpec{{Class: "chat", Count: 3}, {Class: "bulk", Count: 1}}
	if got := req.(server.ServeRequest).Tenants; !reflect.DeepEqual(got, want) {
		t.Errorf("cohorts = %+v, want %+v", got, want)
	}
	spec, err := serveSpec(t, f)
	if err != nil {
		t.Fatal(err)
	}
	labels := make(map[string]bool)
	for _, r := range spec.Trace.Requests {
		labels[r.Tenant] = true
		if !pool[r.SeqLen] {
			t.Fatalf("request length %d is not from the corpus pool", r.SeqLen)
		}
	}
	for l := range labels {
		if !map[string]bool{"chat-0": true, "chat-1": true, "chat-2": true, "bulk-0": true}[l] {
			t.Errorf("unexpected tenant label %q", l)
		}
	}
	if !labels["bulk-0"] || !(labels["chat-0"] || labels["chat-1"] || labels["chat-2"]) {
		t.Errorf("tenant labels %v miss a cohort", labels)
	}

	// No tenants (pattern shaping without tenancy): one anonymous cohort.
	f = testFlags()
	f.ws.Pattern = workload.PatternDiurnal
	anon, err := serveSpec(t, f)
	if err != nil || len(anon.Trace.Requests) != 48 {
		t.Fatalf("anonymous cohort trace: %v", err)
	}
	for _, r := range anon.Trace.Requests {
		if r.Tenant != "" {
			t.Fatalf("anonymous cohort request carries tenant %q", r.Tenant)
		}
	}

	for _, bad := range []string{"chat", "chat=", "chat=0", "chat=-1", "=3", "chat=x", "chat=3,,bulk=1"} {
		f := testFlags()
		f.tenants = bad
		if _, err := f.request(false); err == nil {
			t.Errorf("-tenants %q should error", bad)
		}
	}
}

// TestArrivalTrace covers the serve-mode trace construction paths:
// default Poisson, generated multi-tenant, replayed file (with and
// without rescaling), and the replay/generate flag conflict.
func TestArrivalTrace(t *testing.T) {
	trace := func(edit func(f *servingFlags)) (workload.Trace, error) {
		f := testFlags()
		edit(&f)
		spec, err := serveSpec(t, f)
		return spec.Trace, err
	}
	plain, err := trace(func(f *servingFlags) { f.ws.Requests, f.ws.Rate = 32, 100 })
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Requests) != 32 || plain.Requests[0].Tenant != "" {
		t.Errorf("default trace = %s with %d requests", plain.Name, len(plain.Requests))
	}
	gen, err := trace(func(f *servingFlags) {
		f.ws.Requests, f.ws.Rate, f.tenants, f.ws.Pattern = 64, 200, "chat=2,bulk=1", workload.PatternDiurnal
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Requests) != 64 {
		t.Fatalf("generated trace has %d requests", len(gen.Requests))
	}
	tenanted := false
	for _, r := range gen.Requests {
		tenanted = tenanted || r.Tenant != ""
	}
	if !tenanted {
		t.Error("generated multi-tenant trace carries no tenant labels")
	}

	path := filepath.Join(t.TempDir(), "arrivals.trace")
	if err := workload.SaveTrace(path, gen); err != nil {
		t.Fatal(err)
	}
	replay, err := trace(func(f *servingFlags) { f.ws.TraceFile = path })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, gen) {
		t.Error("replayed trace differs from the recorded one")
	}
	rescaled, err := trace(func(f *servingFlags) { f.ws.TraceFile, f.ws.Rate, f.rateSet = path, 50, true })
	if err != nil {
		t.Fatal(err)
	}
	if got := rescaled.ImpliedRatePerSec(); got < 49.9 || got > 50.1 {
		t.Errorf("rescaled implied rate = %v, want ~50", got)
	}

	for name, edit := range map[string]func(f *servingFlags){
		"-trace-in with -tenants": func(f *servingFlags) { f.ws.TraceFile, f.tenants = path, "chat=1" },
		"missing trace file":      func(f *servingFlags) { f.ws.TraceFile = filepath.Join(t.TempDir(), "missing.trace") },
		"unknown pattern":         func(f *servingFlags) { f.ws.Pattern = "lunar" },
	} {
		if _, err := trace(edit); err == nil {
			t.Errorf("%s should error", name)
		}
	}
}

// TestServeRecordReplay drives a full record-then-replay cycle through
// the serving entry point: a wfq multi-tenant run saves its trace, a
// second run replays it.
func TestServeRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving simulations skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "arrivals.trace")
	rec := testFlags()
	rec.ws.Policy, rec.tenants, rec.ws.Pattern = "wfq", "chat=2,bulk=1", workload.PatternDiurnal
	if err := runFlags(rec, false, path); err != nil {
		t.Fatalf("record run: %v", err)
	}
	replay := testFlags()
	replay.ws.Policy, replay.ws.Requests, replay.ws.TraceFile = "fixed", 0, path
	if err := runFlags(replay, false, ""); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	replay.ws.Policy, replay.fleet.Replicas = "wfq", 2
	if err := runFlags(replay, false, ""); err != nil {
		t.Fatalf("fleet replay run: %v", err)
	}
}

// TestZeroFlagsRefused pins the flag values the request types would
// read as "use the default": each is refused instead of silently
// running the default, while the same value where it changes nothing
// still runs.
func TestZeroFlagsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arrivals.trace")
	gen := testFlags()
	gen.ws.Pattern = workload.PatternDiurnal
	spec, err := serveSpec(t, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.SaveTrace(path, spec.Trace); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		plan    bool
		edit    func(f *servingFlags)
		refused string // the flag named in the error; "" means accepted
	}{
		{"-batch 0", false, func(f *servingFlags) { f.ws.Batch = 0 }, "-batch"},
		{"-requests 0", false, func(f *servingFlags) { f.ws.Requests = 0 }, "-requests"},
		{"-policy empty", false, func(f *servingFlags) { f.ws.Policy = "" }, "-policy"},
		{"-seed 0", false, func(f *servingFlags) { f.ws.Seed = 0 }, "-seed"},
		{"-rate 0 with -trace-in", false, func(f *servingFlags) { f.ws.TraceFile, f.ws.Rate, f.rateSet = path, 0, true }, "-rate"},
		{"-replicas 0 with -routing", false, func(f *servingFlags) { f.fleet.Replicas, f.routingSet = 0, true }, "-replicas"},
		{"-replicas 0 with -autoscale", false, func(f *servingFlags) { f.fleet.Replicas, f.autoscale = 0, true }, "-replicas"},
		{"-routing empty", false, func(f *servingFlags) { f.fleet.Routing, f.routingSet = "", true }, "-routing"},
		{"plan -batch 0", true, func(f *servingFlags) { f.ws.Batch = 0 }, "-batch"},
		{"plan -policy empty", true, func(f *servingFlags) { f.ws.Policy = "" }, "-policy"},
		{"plan -seed 0", true, func(f *servingFlags) { f.ws.Seed = 0 }, "-seed"},
		// Where the zero changes nothing it still runs: a replay ignores
		// -requests, the planner's probe reads 0 as the default length,
		// and -replicas 0 alone keeps the single queue.
		{"-requests 0 with -trace-in", false, func(f *servingFlags) { f.ws.TraceFile, f.ws.Requests = path, 0 }, ""},
		{"plan -requests 0", true, func(f *servingFlags) { f.ws.Requests = 0 }, ""},
		{"-replicas 0 alone", false, func(f *servingFlags) { f.fleet.Replicas = 0 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := testFlags()
			f.plan.SLO.MinThroughputRPS = 100
			tc.edit(&f)
			_, err := f.request(tc.plan)
			switch {
			case tc.refused == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.refused+" ")):
				t.Errorf("error %v, want one naming %s", err, tc.refused)
			}
		})
	}
}
