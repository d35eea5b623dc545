// Command trainsim runs the simulated training of a model on a hardware
// configuration and dumps the per-unique-SL iteration profile as CSV
// (seqlen, iterations, iteration time, counters) plus a run summary.
// The CSV is the raw data behind the paper's Figs 7 and 9.
//
// With -serve it instead simulates online inference serving: a Poisson
// arrival trace at -rate requests/s through the -policy batcher,
// reporting throughput, utilization and the p50/p95/p99 latency tail.
// -tenants and -pattern generate multi-tenant, diurnally shaped
// arrivals instead (with per-tenant roll-ups, and "wfq" as the
// tenant-aware batching policy); -trace-out records the arrival trace
// as a versioned JSON-lines file and -trace-in replays one.
//
// With -plan it answers the inverse serving question: given SLO
// targets (-slo-p99-us, -slo-ttft-p99-us, -slo-min-rps,
// -slo-max-drop-pct), search replicas × routing for the cheapest fleet
// that meets them at -rate, and report the plan with its saturation
// analysis — headroom, bottleneck, and the knee rate where it breaks.
//
// Both serving modes map their flags onto seqpointd's request types and
// resolve them with the Spec methods its /v1/serve, /v1/fleet and
// /v1/plan handlers call, so a run here simulates the same inputs.
//
// Usage:
//
//	trainsim -model ds2 -config 3 -epochs 2 -parallelism 8 -o profile.csv
//	trainsim -model gnmt -gpus 8 -topology ring -linkgbps 25
//	trainsim -model gnmt -serve -rate 120 -policy dynamic -requests 512
//	trainsim -model gnmt -serve -replicas 32 -rate 5000 -cpuprofile cpu.pprof
//	trainsim -model gnmt -serve -tenants chat=3,bulk=1 -pattern diurnal -policy wfq -trace-out arrivals.trace
//	trainsim -model gnmt -serve -trace-in arrivals.trace
//	trainsim -model gnmt -plan -rate 700 -slo-p99-us 180000 -slo-min-rps 400
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/planner"
	"seqpoint/internal/profiler"
	"seqpoint/internal/report"
	"seqpoint/internal/server"
	"seqpoint/internal/serving"
	"seqpoint/internal/workload"
)

// writeTrace prices one iteration at traceSL and writes its kernel
// timeline as Chrome trace-event JSON.
func writeTrace(w experiments.Workload, cfg gpusim.Config, traceSL int, path string) error {
	sim, err := gpusim.New(cfg)
	if err != nil {
		return err
	}
	invs, err := profiler.TraceIteration(sim, w.Model, w.Batch, traceSL)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return profiler.WriteChromeTrace(f, invs)
}

func main() {
	// The body lives in mainExit so deferred teardown — flushing pprof
	// profiles, above all — runs before the process exits; a bare
	// os.Exit in main would discard a partially-written CPU profile.
	os.Exit(mainExit())
}

func mainExit() int {
	var (
		model    = flag.String("model", "ds2", "model to train: ds2, gnmt, transformer, seq2seq or cnn")
		cfgIdx   = flag.Int("config", 1, "Table II configuration number (1-5)")
		epochs   = flag.Int("epochs", experiments.DefaultEpochs, "epochs to simulate")
		batch    = flag.Int("batch", experiments.DefaultBatch, "minibatch size")
		seed     = flag.Int64("seed", experiments.DefaultSeed, "dataset/shuffle seed")
		outCSV   = flag.String("o", "", "write per-SL profile CSV to this file (default: stdout table only)")
		traceSL  = flag.Int("trace-sl", 0, "also write a Chrome trace of one iteration at this SL")
		traceTo  = flag.String("trace-o", "trace.json", "Chrome trace output path (with -trace-sl)")
		par      = flag.Int("parallelism", 0, "concurrent profiling workers (0 = GOMAXPROCS)")
		gpus     = flag.Int("gpus", 1, "data-parallel GPU count (1 = single-GPU training)")
		topology = flag.String("topology", string(gpusim.TopologyRing), "cluster interconnect: ring or mesh")
		linkGBps = flag.Float64("linkgbps", gpusim.DefaultLinkGBps, "per-link interconnect bandwidth in GB/s")
		linkLat  = flag.Float64("linklatus", gpusim.DefaultLinkLatencyUS, "per-hop interconnect latency in microseconds")
		overlap  = flag.Float64("overlap", gpusim.DefaultOverlap, "fraction of compute the all-reduce can hide behind [0,1]")
		serve    = flag.Bool("serve", false, "simulate online serving instead of training")
		plan     = flag.Bool("plan", false, "plan capacity: find the minimal fleet meeting the -slo-* targets at -rate")
		traceOut = flag.String("trace-out", "", "(with -serve) save the arrival trace to this file (versioned JSON lines)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	var sf servingFlags
	flag.Float64Var(&sf.ws.Rate, "rate", 100, "(with -serve) Poisson arrival rate in requests/s")
	flag.StringVar(&sf.ws.Policy, "policy", serving.PolicyDynamic, "(with -serve) batching policy: fixed, dynamic, length or wfq")
	flag.IntVar(&sf.ws.Requests, "requests", experiments.DefaultServeRequests, "(with -serve) arrival-trace length")
	flag.StringVar(&sf.tenants, "tenants", "", "(with -serve) generate a multi-tenant trace: comma-separated class=count cohorts, e.g. chat=3,bulk=1")
	flag.StringVar(&sf.ws.Pattern, "pattern", "", "(with -serve) arrival-rate shape for generated traces: uniform or diurnal")
	flag.StringVar(&sf.ws.TraceFile, "trace-in", "", "(with -serve) replay a recorded trace file instead of generating arrivals; an explicit -rate rescales it")
	sf.ws.TimeoutUS = flag.Float64("serve-timeout-us", 50000, "(with -serve) dynamic policy's batching window in µs")
	flag.IntVar(&sf.fleet.Replicas, "replicas", 1, "(with -serve) serving replica count; > 1 simulates a fleet")
	flag.StringVar(&sf.fleet.Routing, "routing", serving.RoutingRoundRobin, "(with -serve) fleet routing: rr, least, jsq or po2")
	flag.IntVar(&sf.fleet.QueueCap, "queue-cap", 0, "(with -serve) per-replica admission queue bound (0 = unbounded)")
	flag.BoolVar(&sf.autoscale, "autoscale", false, "(with -serve) autoscale the fleet between 1 and -replicas on queue depth")
	flag.Float64Var(&sf.kvCapGB, "kv-capacity-gb", 0, "(with -serve) per-replica KV-cache capacity in GB; 0 disables the memory model")
	flag.IntVar(&sf.ws.DecodeSteps, "decode-steps", 0, "(with -serve -kv-capacity-gb) decode steps per request")
	flag.StringVar(&sf.ws.KVPreempt, "kv-preempt", "", "(with -serve -kv-capacity-gb) over-capacity behavior: evict or block")
	flag.StringVar(&sf.disagg, "disagg", "", "(with -serve -kv-capacity-gb) split the fleet into prefill:decode pools, e.g. 2:6")
	flag.Float64Var(&sf.plan.SLO.LatencyP99US, "slo-p99-us", 0, "(with -plan) p99 end-to-end latency target in µs (0 = untargeted)")
	flag.Float64Var(&sf.plan.SLO.TTFTP99US, "slo-ttft-p99-us", 0, "(with -plan) p99 TTFT target in µs; needs -kv-capacity-gb (0 = untargeted)")
	flag.Float64Var(&sf.plan.SLO.MinThroughputRPS, "slo-min-rps", 0, "(with -plan) served-throughput floor in requests/s (0 = untargeted)")
	flag.Float64Var(&sf.sloDrop, "slo-max-drop-pct", -1, "(with -plan) admission drop-rate cap in percent; 0 means drop nothing (-1 = untargeted)")
	flag.IntVar(&sf.plan.MaxReplicas, "plan-max-replicas", planner.DefaultMaxReplicas, "(with -plan) replica search ceiling")
	flag.StringVar(&sf.planRoutings, "plan-routings", "", "(with -plan) comma-separated routing axis (default rr,least,jsq,po2)")
	flag.Parse()
	engine.Shared().SetParallelism(*par)

	// The profiling flags are valid in both modes: the hot paths they
	// exist to inspect span training and serving alike.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainsim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "trainsim:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := writeHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "trainsim:", err)
			}
		}()
	}

	// The three modes accept disjoint knobs; reject mismatched flags
	// instead of silently ignoring them (forgetting -serve while
	// passing -rate would otherwise run a training simulation, and
	// passing -replicas with -plan would contradict the planner, whose
	// job is to choose the replica count).
	if *serve && *plan {
		fmt.Fprintln(os.Stderr, "trainsim: -serve and -plan are mutually exclusive; choose one mode")
		return 1
	}
	mode := "train"
	switch {
	case *serve:
		mode = "serve"
	case *plan:
		mode = "plan"
	}
	var visited []string
	flag.Visit(func(f *flag.Flag) {
		sf.routingSet = sf.routingSet || f.Name == "routing"
		sf.rateSet = sf.rateSet || f.Name == "rate"
		visited = append(visited, f.Name)
	})
	if bad, hint := badModeFlags(mode, visited); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "trainsim: %s %s\n", strings.Join(bad, ", "), hint)
		return 1
	}

	var err error
	if *serve || *plan {
		sf.ws.Model, sf.ws.Config, sf.ws.Batch, sf.ws.Seed = *model, "#"+strconv.Itoa(*cfgIdx), *batch, *seed
		var req any
		if req, err = sf.request(*plan); err == nil {
			switch req := req.(type) {
			case server.PlanRequest:
				err = runPlan(req)
			case server.FleetRequest:
				err = runFleet(req, *traceOut)
			case server.ServeRequest:
				err = runServe(req, *traceOut)
			}
		}
	} else {
		var cl gpusim.ClusterConfig
		if cl, err = clusterFromFlags(*gpus, *topology, *linkGBps, *linkLat, *overlap); err == nil {
			err = run(*model, *cfgIdx, *epochs, *batch, *seed, *outCSV, *traceSL, *traceTo, cl)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		return 1
	}
	return 0
}

// Flag groups by mode. Serving-shared flags (-rate, -policy, the KV
// model, ...) describe the workload and apply to both -serve and
// -plan; fleet-only flags pick the fleet shape, which in -plan mode is
// the planner's output, not an input.
var (
	trainOnlyFlags = map[string]bool{
		"gpus": true, "topology": true, "linkgbps": true, "linklatus": true,
		"overlap": true, "epochs": true, "o": true, "trace-sl": true, "trace-o": true,
	}
	fleetOnlyFlags = map[string]bool{
		"replicas": true, "routing": true, "autoscale": true, "disagg": true,
	}
	serveOnlyFlags = map[string]bool{
		"tenants": true, "pattern": true, "trace-out": true, "trace-in": true,
	}
	servingSharedFlags = map[string]bool{
		"rate": true, "policy": true, "requests": true, "serve-timeout-us": true,
		"queue-cap": true, "kv-capacity-gb": true, "decode-steps": true, "kv-preempt": true,
	}
	planOnlyFlags = map[string]bool{
		"slo-p99-us": true, "slo-ttft-p99-us": true, "slo-min-rps": true,
		"slo-max-drop-pct": true, "plan-max-replicas": true, "plan-routings": true,
	}
)

// badModeFlags returns the explicitly-set flags that do not apply to
// the selected mode ("train", "serve" or "plan"), plus the hint to
// print after them.
func badModeFlags(mode string, visited []string) (bad []string, hint string) {
	wrong := func(name string) bool {
		switch mode {
		case "serve":
			return trainOnlyFlags[name] || planOnlyFlags[name]
		case "plan":
			return trainOnlyFlags[name] || fleetOnlyFlags[name] || serveOnlyFlags[name]
		default:
			return servingSharedFlags[name] || fleetOnlyFlags[name] || serveOnlyFlags[name] || planOnlyFlags[name]
		}
	}
	for _, name := range visited {
		if wrong(name) {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil, ""
	}
	switch mode {
	case "serve":
		hint = "do not apply to -serve; training flags need the default mode, -slo-*/-plan-* need -plan"
	case "plan":
		hint = "do not apply to -plan: the planner chooses the fleet shape and drives its own probe traces; use -serve to price a fleet you pick"
	default:
		hint = "apply to -serve or -plan only; add one of those flags"
	}
	return bad, hint
}

// writeHeapProfile snapshots the heap into path after a final GC, so
// the profile reflects live allocations rather than garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// servingFlags holds the flags of the two serving modes, -serve and
// -plan. Most bind straight into the request fields they set, where the
// field takes the flag's value as it is; request maps the rest.
type servingFlags struct {
	ws                             server.WorkloadSpec
	fleet                          server.FleetRequest
	plan                           server.PlanRequest
	tenants, disagg, planRoutings  string
	kvCapGB, sloDrop               float64
	autoscale, rateSet, routingSet bool
}

// request maps the flags onto the daemon's request type for the mode:
// a server.PlanRequest under -plan, a server.FleetRequest when any
// fleet knob is set — more than one replica, autoscaling, a bounded
// queue, an explicit -routing or a pool split, so no flag is silently
// ignored — and a server.ServeRequest otherwise.
func (f servingFlags) request(plan bool) (any, error) {
	fleet := !plan && (f.fleet.Replicas > 1 || f.autoscale || f.fleet.QueueCap > 0 || f.routingSet || f.disagg != "")
	// The request types read a zero or empty field as "use the
	// default"; refuse the flag values they would silently replace.
	for _, z := range []struct {
		flag string
		zero bool
	}{
		{"batch", f.ws.Batch == 0}, {"requests", f.ws.Requests == 0 && !plan && f.ws.TraceFile == ""},
		{"policy", f.ws.Policy == ""}, {"seed", f.ws.Seed == 0}, {"rate", f.ws.Rate == 0 && f.ws.TraceFile != ""},
		{"replicas", fleet && f.fleet.Replicas == 0}, {"routing", fleet && f.fleet.Routing == ""},
	} {
		if z.zero {
			return nil, fmt.Errorf("-%s cannot be zero or empty: the request types read that as their default", z.flag)
		}
	}
	if f.kvCapGB != 0 {
		f.ws.KVCapacityGB = &f.kvCapGB
	}
	if f.ws.TraceFile != "" && !f.rateSet {
		f.ws.Rate = 0 // replay at the recorded rate
	}
	if f.tenants != "" {
		for _, part := range strings.Split(f.tenants, ",") {
			class, count, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || class == "" {
				return nil, fmt.Errorf("-tenants wants class=count pairs (e.g. chat=3,bulk=1), got %q", part)
			}
			n, err := strconv.Atoi(count)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("-tenants cohort %q needs a positive tenant count, got %q", class, count)
			}
			f.ws.Tenants = append(f.ws.Tenants, server.TenantSpec{Class: class, Count: n})
		}
	}

	if plan {
		req := f.plan
		req.WorkloadSpec, req.QueueCap = f.ws, f.fleet.QueueCap
		if f.sloDrop >= 0 {
			req.SLO.MaxDropRatePct = &f.sloDrop
		} else if req.SLO.LatencyP99US == 0 && req.SLO.TTFTP99US == 0 && req.SLO.MinThroughputRPS == 0 {
			return nil, errors.New("SLO needs at least one target; set at least one of -slo-p99-us, -slo-ttft-p99-us, -slo-min-rps, -slo-max-drop-pct")
		}
		if f.planRoutings != "" {
			for _, r := range strings.Split(f.planRoutings, ",") {
				req.Routings = append(req.Routings, strings.TrimSpace(r))
			}
		}
		return req, nil
	}
	if !fleet {
		return server.ServeRequest{WorkloadSpec: f.ws}, nil
	}
	req := f.fleet
	req.WorkloadSpec = f.ws
	if f.autoscale {
		// Scale between one replica and -replicas; the request's
		// defaults set the thresholds and the cooldown.
		req.Autoscale = &server.AutoscaleSpec{Max: req.Replicas}
		req.Replicas = 1
	}
	if f.disagg != "" {
		req.Disagg = new(server.DisaggSpec)
		if n, err := fmt.Sscanf(f.disagg, "%d:%d", &req.Disagg.Prefill, &req.Disagg.Decode); n != 2 || err != nil {
			return nil, fmt.Errorf("-disagg wants prefill:decode pool sizes (e.g. 2:6), got %q", f.disagg)
		}
	}
	return req, nil
}

// saveArrivals writes the run's arrival trace when -trace-out is set.
func saveArrivals(path string, tr workload.Trace) error {
	if path == "" {
		return nil
	}
	if err := workload.SaveTrace(path, tr); err != nil {
		return err
	}
	fmt.Printf("wrote %d-request arrival trace to %s\n", len(tr.Requests), path)
	return nil
}

// addTenantTable prints the per-tenant roll-up when the trace carried
// tenant labels.
func addTenantTable(stats []serving.TenantStats, kvOn bool) {
	if len(stats) == 0 {
		return
	}
	cols := []string{"tenant", "requests", "served", "drop", "p50", "p95", "p99"}
	if kvOn {
		cols = append(cols, "p99 TTFT")
	}
	tt := report.NewTable("Per-tenant", cols...).AlignNumeric()
	for _, ts := range stats {
		row := []string{
			ts.Tenant,
			report.Count(ts.Requests),
			report.Count(ts.Served),
			report.Pct(ts.DropRatePct),
			report.US(ts.P50LatencyUS),
			report.US(ts.P95LatencyUS),
			report.US(ts.P99LatencyUS),
		}
		if kvOn {
			row = append(row, report.US(ts.P99TTFTUS))
		}
		tt.AddStringRow(row...)
	}
	fmt.Print(tt.String())
}

// runServe simulates online serving on one queue and prints the
// roll-up, saving the arrival trace to traceOut when it is set.
func runServe(req server.ServeRequest, traceOut string) error {
	spec, cfg, err := req.Spec(engine.Shared())
	if err != nil {
		return err
	}
	if err := saveArrivals(traceOut, spec.Trace); err != nil {
		return err
	}
	res, err := serving.Simulate(spec, cfg)
	if err != nil {
		return err
	}
	sum := res.Summary()

	fmt.Printf("model=%s trace=%s config=%s policy=%s\n", req.Model, spec.Trace.Name, cfg, sum.Policy)
	t := report.NewTable("Serving summary", "quantity", "value").Align(1, report.AlignRight)
	t.AddStringRow("requests", report.Count(sum.Requests))
	t.AddStringRow("batches", report.Count(sum.Batches))
	t.AddStringRow("mean batch size", fmt.Sprintf("%.1f", sum.MeanBatch))
	t.AddStringRow("makespan", report.US(sum.MakespanUS))
	t.AddStringRow("utilization", report.Pct(sum.UtilizationPct))
	t.AddStringRow("throughput", fmt.Sprintf("%.1f req/s", sum.ThroughputRPS))
	t.AddStringRow("mean wait", report.US(sum.MeanWaitUS))
	t.AddStringRow("mean latency", report.US(sum.MeanLatencyUS))
	t.AddStringRow("p50 latency", report.US(sum.P50LatencyUS))
	t.AddStringRow("p95 latency", report.US(sum.P95LatencyUS))
	t.AddStringRow("p99 latency", report.US(sum.P99LatencyUS))
	if spec.KV != nil {
		addKVRows(t, sum.MeanTTFTUS, sum.P99TTFTUS, sum.Preemptions, sum.KVPeakBytes, sum.KVCapacityBytes)
	}
	fmt.Print(t.String())
	addTenantTable(sum.PerTenant, spec.KV != nil)
	return nil
}

// addKVRows appends the KV-model rows shared by the serve and fleet
// summaries.
func addKVRows(t *report.Table, meanTTFT, p99TTFT float64, preemptions int, peak, capacity float64) {
	t.AddStringRow("mean TTFT", report.US(meanTTFT))
	t.AddStringRow("p99 TTFT", report.US(p99TTFT))
	t.AddStringRow("preemptions", report.Count(preemptions))
	t.AddStringRow("KV peak / capacity", fmt.Sprintf("%.2f / %.2f GB", peak/1e9, capacity/1e9))
}

// runFleet simulates multi-replica serving and prints the fleet
// roll-up, saving the arrival trace to traceOut when it is set.
func runFleet(req server.FleetRequest, traceOut string) error {
	spec, cfg, err := req.Spec(engine.Shared())
	if err != nil {
		return err
	}
	if err := saveArrivals(traceOut, spec.Trace); err != nil {
		return err
	}
	res, err := serving.SimulateFleet(spec, cfg)
	if err != nil {
		return err
	}
	sum := res.Summary()

	fmt.Printf("model=%s trace=%s config=%s policy=%s routing=%s replicas=%d\n",
		req.Model, spec.Trace.Name, cfg, sum.Policy, sum.Routing, sum.Replicas)
	t := report.NewTable("Fleet summary", "quantity", "value").Align(1, report.AlignRight)
	t.AddStringRow("requests", report.Count(sum.Requests))
	t.AddStringRow("served", report.Count(sum.Served))
	t.AddStringRow("rejected", report.Count(sum.Rejected))
	t.AddStringRow("drop rate", report.Pct(sum.DropRatePct))
	t.AddStringRow("batches", report.Count(sum.Batches))
	t.AddStringRow("makespan", report.US(sum.MakespanUS))
	t.AddStringRow("utilization", report.Pct(sum.UtilizationPct))
	t.AddStringRow("throughput", fmt.Sprintf("%.1f req/s", sum.ThroughputRPS))
	t.AddStringRow("mean wait", report.US(sum.MeanWaitUS))
	t.AddStringRow("p50 latency", report.US(sum.P50LatencyUS))
	t.AddStringRow("p95 latency", report.US(sum.P95LatencyUS))
	t.AddStringRow("p99 latency", report.US(sum.P99LatencyUS))
	t.AddStringRow("replica-seconds", fmt.Sprintf("%.2f", sum.ReplicaSeconds))
	if spec.KV != nil {
		addKVRows(t, sum.MeanTTFTUS, sum.P99TTFTUS, sum.Preemptions, sum.KVPeakBytes, sum.KVCapacityBytes)
	}
	if sum.Disagg != "" {
		t.AddStringRow("pools", sum.Disagg)
	}
	if spec.Autoscale != nil {
		t.AddStringRow("scale ups / downs", fmt.Sprintf("%d / %d", sum.ScaleUps, sum.ScaleDowns))
		t.AddStringRow("peak replicas", report.Count(sum.PeakReplicas))
	}
	fmt.Print(t.String())
	addTenantTable(sum.PerTenant, spec.KV != nil)

	rt := report.NewTable("Per-replica", "replica", "gpus", "served", "batches", "busy", "live").AlignNumeric()
	for _, rs := range sum.PerReplica {
		rt.AddStringRow(
			fmt.Sprintf("%d", rs.Replica),
			fmt.Sprintf("%d", rs.GPUs),
			fmt.Sprintf("%d", rs.Served),
			fmt.Sprintf("%d", rs.Batches),
			report.US(rs.BusyUS),
			report.US(rs.LiveUS))
	}
	fmt.Print(rt.String())
	return nil
}

// runPlan searches for the minimal fleet meeting the SLO at the
// offered rate and prints the plan report.
func runPlan(req server.PlanRequest) error {
	spec, cfg, err := req.Spec(engine.Shared())
	if err != nil {
		return err
	}
	plan, err := planner.Solve(spec)
	if err != nil {
		return err
	}

	fmt.Printf("model=%s config=%s rate=%g req/s max-replicas=%d\n", req.Model, cfg, spec.RatePerSec, spec.MaxReplicas)
	t := report.NewTable("Capacity plan", "quantity", "value").Align(1, report.AlignRight)
	t.AddStringRow("replicas", report.Count(plan.Replicas))
	t.AddStringRow("routing", plan.Routing)
	t.AddStringRow("policy", plan.Policy)
	if plan.KVCapacityGB > 0 {
		t.AddStringRow("KV capacity", fmt.Sprintf("%.2f GB", plan.KVCapacityGB))
	}
	t.AddStringRow("cost", fmt.Sprintf("%.2f replica-s", plan.CostReplicaSeconds))
	t.AddStringRow("throughput", fmt.Sprintf("%.1f req/s", plan.Summary.ThroughputRPS))
	t.AddStringRow("p99 latency", report.US(plan.Summary.P99LatencyUS))
	t.AddStringRow("probe evaluations", report.Count(plan.Evaluations))
	fmt.Print(t.String())

	st := report.NewTable("SLO targets", "dimension", "target", "achieved", "headroom", "met").AlignNumeric()
	for _, d := range plan.SLO {
		met := "yes"
		if !d.OK {
			met = "NO"
		}
		st.AddStringRow(d.Name, fmt.Sprintf("%.6g", d.Target), fmt.Sprintf("%.6g", d.Achieved),
			report.Pct(d.HeadroomPct), met)
	}
	fmt.Print(st.String())

	sat := plan.Saturation
	at := report.NewTable("Saturation", "quantity", "value").Align(1, report.AlignRight)
	at.AddStringRow("bottleneck", sat.Bottleneck)
	at.AddStringRow("compute pressure", report.Pct(sat.ComputePct))
	at.AddStringRow("queue pressure", report.Pct(sat.QueuePct))
	if sat.KVPct > 0 {
		at.AddStringRow("KV pressure", report.Pct(sat.KVPct))
	}
	at.AddStringRow("SLO headroom", report.Pct(sat.SLOHeadroomPct))
	knee := fmt.Sprintf("%.1f req/s (%.2f× planned)", sat.KneeRPS, sat.KneeFactor)
	if sat.KneeCapped {
		knee += " — beyond probed range"
	}
	at.AddStringRow("knee", knee)
	fmt.Print(at.String())
	return nil
}

// clusterFromFlags assembles and validates the cluster configuration.
func clusterFromFlags(gpus int, topology string, linkGBps, linkLatUS, overlap float64) (gpusim.ClusterConfig, error) {
	if gpus <= 1 {
		return gpusim.SingleGPU(), nil
	}
	topo, err := gpusim.ParseTopology(topology)
	if err != nil {
		return gpusim.ClusterConfig{}, err
	}
	cl := gpusim.ClusterConfig{
		GPUs:          gpus,
		Topology:      topo,
		LinkGBps:      linkGBps,
		LinkLatencyUS: linkLatUS,
		Overlap:       overlap,
	}
	return cl, cl.Validate()
}

func run(model string, cfgIdx, epochs, batch int, seed int64, outCSV string, traceSL int, traceTo string, cl gpusim.ClusterConfig) error {
	cfgs := gpusim.TableII()
	if cfgIdx < 1 || cfgIdx > len(cfgs) {
		return fmt.Errorf("config %d outside Table II range 1-%d", cfgIdx, len(cfgs))
	}
	cfg := cfgs[cfgIdx-1]

	w, err := experiments.WorkloadByName(model, seed)
	if err != nil {
		return err
	}
	w.Batch = batch
	w.Epochs = epochs
	w.Cluster = cl

	if traceSL > 0 {
		if err := writeTrace(w, cfg, traceSL, traceTo); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace of one %s iteration at SL %d to %s\n",
			w.Name, traceSL, traceTo)
	}

	lab := experiments.NewLab()
	r, err := lab.Run(w, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("model=%s dataset=%s config=%s cluster=%s epochs=%d batch=%d\n",
		w.Name, w.Train.Name, cfg, r.Cluster, epochs, batch)
	st := report.NewTable("Run summary", "quantity", "value").Align(1, report.AlignRight)
	st.AddStringRow("training iterations", report.Count(r.Iterations))
	st.AddStringRow("unique seqlens", report.Count(len(r.BySL)))
	st.AddStringRow("training time", report.US(r.TrainUS))
	if r.Cluster.GPUs > 1 {
		st.AddStringRow("per-GPU shard batch", report.Count(r.Cluster.ShardBatch(r.Batch)))
		st.AddStringRow("exposed comm time", report.US(r.CommUS))
	}
	st.AddStringRow("evaluation time", report.US(r.EvalUS))
	st.AddStringRow("autotune time", report.US(r.AutotuneUS))
	st.AddStringRow("total time", report.US(r.TotalUS()))
	st.AddStringRow("throughput", fmt.Sprintf("%.1f samples/s", r.Throughput()))
	fmt.Print(st.String())

	sum, err := r.EpochSummary(0)
	if err != nil {
		return err
	}
	t := report.NewTable("Per-SL profile (epoch 0)",
		"seqlen", "iterations", "iter_time_us", "valu_insts", "load_bytes", "store_bytes", "write_stall_cycles").
		AlignNumeric()
	for _, s := range sum {
		p := r.BySL[s.SeqLen]
		t.AddStringRow(
			fmt.Sprintf("%d", s.SeqLen),
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.1f", s.IterTimeUS),
			fmt.Sprintf("%.0f", p.Counters.VALUInsts),
			fmt.Sprintf("%.0f", p.Counters.LoadBytes),
			fmt.Sprintf("%.0f", p.Counters.StoreBytes),
			fmt.Sprintf("%.0f", p.Counters.MemWriteStallCycles),
		)
	}

	var out io.Writer = os.Stdout
	if outCSV != "" {
		f, err := os.Create(outCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
		fmt.Printf("\nwriting %d per-SL rows to %s\n", t.Rows(), outCSV)
		_, err = io.WriteString(out, t.CSV())
		return err
	}
	fmt.Println()
	fmt.Print(t.String())
	return nil
}
