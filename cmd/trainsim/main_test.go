package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/planner"
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

// TestRunPlan drives the planning entry point end to end (output goes
// to stdout; errors are what we assert on).
func TestRunPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("full planning searches skipped in -short mode")
	}
	// Feasible: a loose latency target plus a throughput floor.
	slo := planner.SLO{LatencyP99US: 500_000, MinThroughputRPS: 100}
	if err := runPlan("gnmt", 1, 16, 1, 300, "dynamic", 48, 20000, 0, nil, slo, 4, ""); err != nil {
		t.Errorf("runPlan: %v", err)
	}
	// An explicit routing axis and a bounded queue.
	if err := runPlan("gnmt", 1, 16, 1, 300, "dynamic", 48, 20000, 32, nil, slo, 4, "rr,jsq"); err != nil {
		t.Errorf("runPlan with routings: %v", err)
	}
	// The KV model brings TTFT targets into play.
	kv := &serving.KVConfig{CapacityBytes: 0.5e9, DecodeSteps: 16}
	kvSLO := planner.SLO{TTFTP99US: 1e9, MinThroughputRPS: 10}
	if err := runPlan("gnmt", 1, 16, 1, 300, "dynamic", 48, 20000, 0, kv, kvSLO, 4, ""); err != nil {
		t.Errorf("runPlan kv: %v", err)
	}

	// Error paths: bad config, empty SLO, unknown model/policy/routing,
	// infeasible target.
	if err := runPlan("gnmt", 9, 16, 1, 300, "dynamic", 48, 20000, 0, nil, slo, 4, ""); err == nil {
		t.Error("config out of range should error")
	}
	if err := runPlan("gnmt", 1, 16, 1, 300, "dynamic", 48, 20000, 0, nil, planner.SLO{}, 4, ""); err == nil {
		t.Error("empty SLO should error")
	}
	if err := runPlan("cnn", 1, 16, 1, 300, "dynamic", 48, 20000, 0, nil, slo, 4, ""); err == nil {
		t.Error("cnn is not servable")
	}
	if err := runPlan("gnmt", 1, 16, 1, 300, "magic", 48, 20000, 0, nil, slo, 4, ""); err == nil {
		t.Error("unknown policy should error")
	}
	if err := runPlan("gnmt", 1, 16, 1, 300, "dynamic", 48, 20000, 0, nil, slo, 4, "rr,torus"); err == nil {
		t.Error("unknown routing should error")
	}
	if err := runPlan("gnmt", 1, 16, 1, 300, "dynamic", 48, 20000, 0, nil,
		planner.SLO{LatencyP99US: 1}, 2, "rr"); err == nil {
		t.Error("impossible latency target should be infeasible")
	}
}

func TestKVFromFlags(t *testing.T) {
	if kv, dis, err := kvFromFlags(0, 0, "", "", 2); err != nil || kv != nil || dis != nil {
		t.Fatalf("no KV flags should mean no KV model: %v %v %v", kv, dis, err)
	}
	if _, _, err := kvFromFlags(0, 8, "", "", 2); err == nil {
		t.Error("-decode-steps without -kv-capacity-gb should error")
	}
	kv, dis, err := kvFromFlags(0.5, 8, "block", "1:2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if kv == nil || kv.CapacityBytes != 0.5e9 || kv.DecodeSteps != 8 || kv.Preempt != serving.PreemptBlock {
		t.Errorf("kv = %+v", kv)
	}
	if dis == nil || dis.PrefillReplicas != 1 || dis.DecodeReplicas != 2 {
		t.Errorf("disagg = %+v", dis)
	}
	if _, _, err := kvFromFlags(0.5, 8, "", "1:3", 3); err == nil {
		t.Error("pools not summing to replicas should error")
	}
	if _, _, err := kvFromFlags(0.5, 0, "", "nope", 2); err == nil {
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
	if err := runServe("gnmt", 1, 8, 1, 300, "dynamic", 48, 20000, nil, arrivalSpec{}); err != nil {
		t.Errorf("runServe: %v", err)
	}
	if err := runFleet("gnmt", 1, 8, 1, 600, "dynamic", 48, 20000, 3, "jsq", 64, false, nil, nil, arrivalSpec{}); err != nil {
		t.Errorf("runFleet: %v", err)
	}
	if err := runFleet("gnmt", 1, 8, 1, 600, "dynamic", 48, 20000, 2, "po2", 0, true, nil, nil, arrivalSpec{}); err != nil {
		t.Errorf("runFleet autoscale: %v", err)
	}
	kv := &serving.KVConfig{CapacityBytes: 0.05e9, DecodeSteps: 16}
	if err := runServe("gnmt", 1, 8, 1, 300, "dynamic", 48, 20000, kv, arrivalSpec{}); err != nil {
		t.Errorf("runServe kv: %v", err)
	}
	if err := runFleet("gnmt", 1, 8, 1, 600, "dynamic", 48, 20000, 3, "kv", 64, false, kv, nil, arrivalSpec{}); err != nil {
		t.Errorf("runFleet kv routing: %v", err)
	}
	if err := runFleet("gnmt", 1, 8, 1, 600, "dynamic", 48, 20000, 3, "rr", 64, false, kv,
		&serving.DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2}, arrivalSpec{}); err != nil {
		t.Errorf("runFleet disagg: %v", err)
	}

	// Error paths: bad config index, model, policy, routing.
	if err := runServe("gnmt", 9, 8, 1, 300, "dynamic", 48, 20000, nil, arrivalSpec{}); err == nil {
		t.Error("config out of range should error")
	}
	if err := runFleet("gnmt", 0, 8, 1, 300, "dynamic", 48, 20000, 2, "rr", 0, false, nil, nil, arrivalSpec{}); err == nil {
		t.Error("config out of range should error")
	}
	if err := runFleet("cnn", 1, 8, 1, 300, "dynamic", 48, 20000, 2, "rr", 0, false, nil, nil, arrivalSpec{}); err == nil {
		t.Error("cnn is not servable")
	}
	if err := runFleet("gnmt", 1, 8, 1, 300, "magic", 48, 20000, 2, "rr", 0, false, nil, nil, arrivalSpec{}); err == nil {
		t.Error("unknown policy should error")
	}
	if err := runFleet("gnmt", 1, 8, 1, 300, "dynamic", 48, 20000, 2, "torus", 0, false, nil, nil, arrivalSpec{}); err == nil {
		t.Error("unknown routing should error")
	}
	if err := runFleet("gnmt", 1, 8, 1, -5, "dynamic", 48, 20000, 2, "rr", 0, false, nil, nil, arrivalSpec{}); err == nil {
		t.Error("negative rate should error")
	}
}

// TestParseTenants pins the -tenants cohort grammar.
func TestParseTenants(t *testing.T) {
	sls := []int{4, 8}
	cohorts, err := parseTenants("chat=3, bulk=1", sls)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) != 2 || cohorts[0].Class != "chat" || cohorts[0].Tenants != 3 ||
		cohorts[1].Class != "bulk" || cohorts[1].Tenants != 1 {
		t.Errorf("cohorts = %+v", cohorts)
	}
	for _, c := range cohorts {
		if c.Weight != 1 || !reflect.DeepEqual(c.SeqLens, sls) {
			t.Errorf("cohort %q = %+v, want weight 1 and the corpus pool", c.Class, c)
		}
	}
	// Empty spec: one anonymous cohort (pattern shaping without tenancy).
	anon, err := parseTenants("", sls)
	if err != nil || len(anon) != 1 || anon[0].Class != "" || anon[0].Tenants != 1 {
		t.Errorf("anonymous cohort = %+v, %v", anon, err)
	}
	for _, bad := range []string{"chat", "chat=", "chat=0", "chat=-1", "=3", "chat=x", "chat=3,,bulk=1"} {
		if _, err := parseTenants(bad, sls); err == nil {
			t.Errorf("parseTenants(%q) should error", bad)
		}
	}
}

// TestArrivalTrace covers the serve-mode trace construction paths:
// default Poisson, generated multi-tenant, replayed file (with and
// without rescaling), and the replay/generate flag conflict.
func TestArrivalTrace(t *testing.T) {
	w, err := experiments.ServedWorkloadByName("gnmt", 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := arrivalTrace(w, 32, 100, 1, arrivalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Requests) != 32 || plain.Requests[0].Tenant != "" {
		t.Errorf("default trace = %s with %d requests", plain.Name, len(plain.Requests))
	}
	gen, err := arrivalTrace(w, 64, 200, 1, arrivalSpec{tenants: "chat=2,bulk=1", pattern: workload.PatternDiurnal})
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
	replay, err := arrivalTrace(w, 0, 0, 0, arrivalSpec{in: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, gen) {
		t.Error("replayed trace differs from the recorded one")
	}
	rescaled, err := arrivalTrace(w, 0, 50, 0, arrivalSpec{in: path, rateSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rescaled.ImpliedRatePerSec(); got < 49.9 || got > 50.1 {
		t.Errorf("rescaled implied rate = %v, want ~50", got)
	}

	if _, err := arrivalTrace(w, 32, 100, 1, arrivalSpec{in: path, tenants: "chat=1"}); err == nil {
		t.Error("-trace-in with -tenants should conflict")
	}
	if _, err := arrivalTrace(w, 32, 100, 1, arrivalSpec{in: filepath.Join(t.TempDir(), "missing.trace")}); err == nil {
		t.Error("missing trace file should error")
	}
	if _, err := arrivalTrace(w, 32, 100, 1, arrivalSpec{pattern: "lunar"}); err == nil {
		t.Error("unknown pattern should error")
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
	rec := arrivalSpec{tenants: "chat=2,bulk=1", pattern: workload.PatternDiurnal, out: path}
	if err := runServe("gnmt", 1, 8, 1, 300, "wfq", 48, 20000, nil, rec); err != nil {
		t.Fatalf("record run: %v", err)
	}
	if err := runServe("gnmt", 1, 8, 1, 300, "fixed", 0, 20000, nil, arrivalSpec{in: path}); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if err := runFleet("gnmt", 1, 8, 1, 300, "wfq", 0, 20000, 2, "rr", 0, false, nil, nil,
		arrivalSpec{in: path}); err != nil {
		t.Fatalf("fleet replay run: %v", err)
	}
}
