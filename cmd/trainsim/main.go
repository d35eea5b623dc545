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
		rate     = flag.Float64("rate", 100, "(with -serve) Poisson arrival rate in requests/s")
		policy   = flag.String("policy", serving.PolicyDynamic, "(with -serve) batching policy: fixed, dynamic, length or wfq")
		requests = flag.Int("requests", experiments.DefaultServeRequests, "(with -serve) arrival-trace length")
		tenants  = flag.String("tenants", "", "(with -serve) generate a multi-tenant trace: comma-separated class=count cohorts, e.g. chat=3,bulk=1")
		pattern  = flag.String("pattern", "", "(with -serve) arrival-rate shape for generated traces: uniform or diurnal")
		traceOut = flag.String("trace-out", "", "(with -serve) save the arrival trace to this file (versioned JSON lines)")
		traceIn  = flag.String("trace-in", "", "(with -serve) replay a recorded trace file instead of generating arrivals; an explicit -rate rescales it")
		timeout  = flag.Float64("serve-timeout-us", 50000, "(with -serve) dynamic policy's batching window in µs")
		replicas = flag.Int("replicas", 1, "(with -serve) serving replica count; > 1 simulates a fleet")
		routing  = flag.String("routing", serving.RoutingRoundRobin, "(with -serve) fleet routing: rr, least, jsq or po2")
		queueCap = flag.Int("queue-cap", 0, "(with -serve) per-replica admission queue bound (0 = unbounded)")
		autoScal = flag.Bool("autoscale", false, "(with -serve) autoscale the fleet between 1 and -replicas on queue depth")
		kvCapGB  = flag.Float64("kv-capacity-gb", 0, "(with -serve) per-replica KV-cache capacity in GB; 0 disables the memory model")
		kvSteps  = flag.Int("decode-steps", 0, "(with -serve -kv-capacity-gb) decode steps per request")
		kvPre    = flag.String("kv-preempt", "", "(with -serve -kv-capacity-gb) over-capacity behavior: evict or block")
		disagg   = flag.String("disagg", "", "(with -serve -kv-capacity-gb) split the fleet into prefill:decode pools, e.g. 2:6")
		plan     = flag.Bool("plan", false, "plan capacity: find the minimal fleet meeting the -slo-* targets at -rate")
		sloP99   = flag.Float64("slo-p99-us", 0, "(with -plan) p99 end-to-end latency target in µs (0 = untargeted)")
		sloTTFT  = flag.Float64("slo-ttft-p99-us", 0, "(with -plan) p99 TTFT target in µs; needs -kv-capacity-gb (0 = untargeted)")
		sloRPS   = flag.Float64("slo-min-rps", 0, "(with -plan) served-throughput floor in requests/s (0 = untargeted)")
		sloDrop  = flag.Float64("slo-max-drop-pct", -1, "(with -plan) admission drop-rate cap in percent; 0 means drop nothing (-1 = untargeted)")
		planMax  = flag.Int("plan-max-replicas", planner.DefaultMaxReplicas, "(with -plan) replica search ceiling")
		planRout = flag.String("plan-routings", "", "(with -plan) comma-separated routing axis (default rr,least,jsq,po2)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
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
	routingSet, rateSet := false, false
	flag.Visit(func(f *flag.Flag) {
		routingSet = routingSet || f.Name == "routing"
		rateSet = rateSet || f.Name == "rate"
		visited = append(visited, f.Name)
	})
	if bad, hint := badModeFlags(mode, visited); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "trainsim: %s %s\n", strings.Join(bad, ", "), hint)
		return 1
	}

	if *plan {
		slo := planner.SLO{
			TTFTP99US:        *sloTTFT,
			LatencyP99US:     *sloP99,
			MinThroughputRPS: *sloRPS,
		}
		if *sloDrop >= 0 {
			slo.MaxDropRatePct = sloDrop
		}
		kvCfg, _, err := kvFromFlags(*kvCapGB, *kvSteps, *kvPre, "", 0)
		if err == nil {
			err = runPlan(*model, *cfgIdx, *batch, *seed, *rate, *policy, *requests, *timeout,
				*queueCap, kvCfg, slo, *planMax, *planRout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainsim:", err)
			return 1
		}
		return 0
	}

	if *serve {
		arr := arrivalSpec{tenants: *tenants, pattern: *pattern, in: *traceIn, out: *traceOut, rateSet: rateSet}
		kvCfg, disaggCfg, err := kvFromFlags(*kvCapGB, *kvSteps, *kvPre, *disagg, *replicas)
		if err == nil {
			// Any fleet-only knob — including an explicit -routing, a
			// bounded queue or a pool split on a single replica — selects
			// the fleet simulator, so no flag is ever silently ignored.
			if *replicas > 1 || *autoScal || *queueCap > 0 || routingSet || disaggCfg != nil {
				err = runFleet(*model, *cfgIdx, *batch, *seed, *rate, *policy, *requests, *timeout,
					*replicas, *routing, *queueCap, *autoScal, kvCfg, disaggCfg, arr)
			} else {
				err = runServe(*model, *cfgIdx, *batch, *seed, *rate, *policy, *requests, *timeout, kvCfg, arr)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainsim:", err)
			return 1
		}
		return 0
	}

	cl, err := clusterFromFlags(*gpus, *topology, *linkGBps, *linkLat, *overlap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		return 1
	}
	if err := run(*model, *cfgIdx, *epochs, *batch, *seed, *outCSV, *traceSL, *traceTo, cl); err != nil {
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

// kvFromFlags assembles the KV-cache and disaggregation configuration
// from the serve-mode flags; both are nil with the memory model off.
func kvFromFlags(capGB float64, steps int, preempt, disagg string, replicas int) (*serving.KVConfig, *serving.DisaggConfig, error) {
	if capGB == 0 {
		if steps != 0 || preempt != "" || disagg != "" {
			return nil, nil, fmt.Errorf("-decode-steps, -kv-preempt and -disagg need the KV model; add -kv-capacity-gb")
		}
		return nil, nil, nil
	}
	kv := &serving.KVConfig{CapacityBytes: capGB * 1e9, DecodeSteps: steps, Preempt: preempt}
	if err := kv.Validate(); err != nil {
		return nil, nil, err
	}
	if disagg == "" {
		return kv, nil, nil
	}
	var p, d int
	if n, err := fmt.Sscanf(disagg, "%d:%d", &p, &d); n != 2 || err != nil {
		return nil, nil, fmt.Errorf("-disagg wants prefill:decode pool sizes (e.g. 2:6), got %q", disagg)
	}
	if p+d != replicas {
		return nil, nil, fmt.Errorf("-disagg pools must sum to -replicas: %d + %d != %d", p, d, replicas)
	}
	return kv, &serving.DisaggConfig{PrefillReplicas: p, DecodeReplicas: d}, nil
}

// arrivalSpec carries the serve-mode trace-shaping flags: a recorded
// trace to replay, or the generator's tenant mix and arrival pattern,
// plus an optional path to save whichever trace the run used.
type arrivalSpec struct {
	tenants string
	pattern string
	in, out string
	// rateSet records whether -rate was given explicitly; a replayed
	// trace is rescaled to -rate only then, and keeps its recorded
	// arrival times otherwise.
	rateSet bool
}

// arrivalTrace builds the serve-mode arrival trace: a replayed trace
// file, a generated multi-tenant or pattern-shaped trace, or the
// default Poisson process.
func arrivalTrace(w experiments.Workload, requests int, rate float64, seed int64, arr arrivalSpec) (workload.Trace, error) {
	if arr.in != "" {
		if arr.tenants != "" || arr.pattern != "" {
			return workload.Trace{}, fmt.Errorf("-trace-in replays a recorded trace; -tenants and -pattern shape generated ones — drop one side")
		}
		tr, err := workload.LoadTrace(arr.in)
		if err != nil {
			return workload.Trace{}, err
		}
		if arr.rateSet {
			return tr.ScaleToRate(rate)
		}
		return tr, nil
	}
	if arr.tenants == "" && arr.pattern == "" {
		return workload.PoissonTrace(w.Train, requests, rate, seed)
	}
	cohorts, err := parseTenants(arr.tenants, w.Train.Lengths)
	if err != nil {
		return workload.Trace{}, err
	}
	pat := workload.Pattern{Kind: arr.pattern}
	if arr.pattern == workload.PatternDiurnal {
		// Mirror the HTTP envelope's defaults: ±50% swing, two cycles
		// over the nominal trace horizon.
		pat.Amplitude = 0.5
		pat.PeriodUS = float64(requests) / rate * 1e6 / 2
	}
	return workload.Generate(workload.GenSpec{
		Requests:   requests,
		RatePerSec: rate,
		Seed:       seed,
		Pattern:    pat,
		Cohorts:    cohorts,
	})
}

// parseTenants parses the -tenants cohort list ("chat=3,bulk=1") into
// equal-weight cohorts drawing from the corpus lengths. An empty list
// (pattern shaping without tenancy) yields one anonymous cohort.
func parseTenants(spec string, seqLens []int) ([]workload.Cohort, error) {
	if spec == "" {
		return []workload.Cohort{{Tenants: 1, Weight: 1, SeqLens: seqLens}}, nil
	}
	var cohorts []workload.Cohort
	for _, part := range strings.Split(spec, ",") {
		class, count, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || class == "" {
			return nil, fmt.Errorf("-tenants wants class=count pairs (e.g. chat=3,bulk=1), got %q", part)
		}
		n, err := strconv.Atoi(count)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-tenants cohort %q needs a positive tenant count, got %q", class, count)
		}
		cohorts = append(cohorts, workload.Cohort{Class: class, Tenants: n, Weight: 1, SeqLens: seqLens})
	}
	return cohorts, nil
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

// runServe simulates online serving and prints the roll-up.
func runServe(model string, cfgIdx, batch int, seed int64, rate float64, policyName string, requests int, timeoutUS float64, kv *serving.KVConfig, arr arrivalSpec) error {
	cfgs := gpusim.TableII()
	if cfgIdx < 1 || cfgIdx > len(cfgs) {
		return fmt.Errorf("config %d outside Table II range 1-%d", cfgIdx, len(cfgs))
	}
	cfg := cfgs[cfgIdx-1]
	w, err := experiments.ServedWorkloadByName(model, seed)
	if err != nil {
		return err
	}
	pol, err := serving.ParsePolicy(policyName, batch, timeoutUS)
	if err != nil {
		return err
	}
	trace, err := arrivalTrace(w, requests, rate, seed, arr)
	if err != nil {
		return err
	}
	if err := saveArrivals(arr.out, trace); err != nil {
		return err
	}
	res, err := serving.Simulate(serving.Spec{Model: w.Model, Trace: trace, Policy: pol, KV: kv}, cfg)
	if err != nil {
		return err
	}
	sum := res.Summary()

	fmt.Printf("model=%s trace=%s config=%s policy=%s\n", w.Name, trace.Name, cfg, sum.Policy)
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
	if kv != nil {
		addKVRows(t, sum.MeanTTFTUS, sum.P99TTFTUS, sum.Preemptions, sum.KVPeakBytes, sum.KVCapacityBytes)
	}
	fmt.Print(t.String())
	addTenantTable(sum.PerTenant, kv != nil)
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
// roll-up.
func runFleet(model string, cfgIdx, batch int, seed int64, rate float64, policyName string,
	requests int, timeoutUS float64, replicas int, routingName string, queueCap int,
	autoscale bool, kv *serving.KVConfig, disagg *serving.DisaggConfig,
	arr arrivalSpec) error {
	cfgs := gpusim.TableII()
	if cfgIdx < 1 || cfgIdx > len(cfgs) {
		return fmt.Errorf("config %d outside Table II range 1-%d", cfgIdx, len(cfgs))
	}
	cfg := cfgs[cfgIdx-1]
	w, err := experiments.ServedWorkloadByName(model, seed)
	if err != nil {
		return err
	}
	pol, err := serving.ParsePolicy(policyName, batch, timeoutUS)
	if err != nil {
		return err
	}
	router, err := serving.ParseRouting(routingName, seed)
	if err != nil {
		return err
	}
	trace, err := arrivalTrace(w, requests, rate, seed, arr)
	if err != nil {
		return err
	}
	if err := saveArrivals(arr.out, trace); err != nil {
		return err
	}
	spec := serving.FleetSpec{
		Model:    w.Model,
		Trace:    trace,
		Policy:   pol,
		Router:   router,
		Replicas: replicas,
		QueueCap: queueCap,
		KV:       kv,
		Disagg:   disagg,
	}
	if autoscale {
		// Scale between one replica and the flag's fleet size: up past
		// one full batch queued per live replica, down below a quarter.
		spec.Replicas = 1
		spec.Autoscale = &serving.AutoscaleConfig{
			Min:        1,
			Max:        replicas,
			UpDepth:    float64(batch),
			DownDepth:  float64(batch) / 4,
			CooldownUS: 50_000,
		}
	}
	res, err := serving.SimulateFleet(spec, cfg)
	if err != nil {
		return err
	}
	sum := res.Summary()

	fmt.Printf("model=%s trace=%s config=%s policy=%s routing=%s replicas=%d\n",
		w.Name, trace.Name, cfg, sum.Policy, sum.Routing, sum.Replicas)
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
	if kv != nil {
		addKVRows(t, sum.MeanTTFTUS, sum.P99TTFTUS, sum.Preemptions, sum.KVPeakBytes, sum.KVCapacityBytes)
	}
	if sum.Disagg != "" {
		t.AddStringRow("pools", sum.Disagg)
	}
	if autoscale {
		t.AddStringRow("scale ups / downs", fmt.Sprintf("%d / %d", sum.ScaleUps, sum.ScaleDowns))
		t.AddStringRow("peak replicas", report.Count(sum.PeakReplicas))
	}
	fmt.Print(t.String())
	addTenantTable(sum.PerTenant, kv != nil)

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
func runPlan(model string, cfgIdx, batch int, seed int64, rate float64, policyName string,
	requests int, timeoutUS float64, queueCap int, kv *serving.KVConfig,
	slo planner.SLO, maxReplicas int, routingsCSV string) error {
	cfgs := gpusim.TableII()
	if cfgIdx < 1 || cfgIdx > len(cfgs) {
		return fmt.Errorf("config %d outside Table II range 1-%d", cfgIdx, len(cfgs))
	}
	cfg := cfgs[cfgIdx-1]
	if err := slo.Validate(); err != nil {
		return fmt.Errorf("%w; set at least one of -slo-p99-us, -slo-ttft-p99-us, -slo-min-rps, -slo-max-drop-pct", err)
	}
	w, err := experiments.ServedWorkloadByName(model, seed)
	if err != nil {
		return err
	}
	w.Batch = batch
	pol, err := serving.ParsePolicy(policyName, batch, timeoutUS)
	if err != nil {
		return err
	}
	var routings []string
	if routingsCSV != "" {
		for _, r := range strings.Split(routingsCSV, ",") {
			name := strings.TrimSpace(r)
			// Validate eagerly: search pruning can skip a combination
			// entirely, which would let a typo ride along unnoticed.
			if _, err := serving.ParseRouting(name, seed); err != nil {
				return err
			}
			routings = append(routings, name)
		}
	}
	probe, err := experiments.PlanProbe(engine.Shared(), w, cfg, experiments.PlanProbeConfig{
		Requests:        requests,
		QueueCap:        queueCap,
		KV:              kv,
		Policy:          pol,
		PolicyTimeoutUS: timeoutUS,
	})
	if err != nil {
		return err
	}
	plan, err := planner.Solve(planner.Spec{
		SLO:         slo,
		RatePerSec:  rate,
		MaxReplicas: maxReplicas,
		Routings:    routings,
		Probe:       probe,
	})
	if err != nil {
		return err
	}

	fmt.Printf("model=%s config=%s rate=%g req/s max-replicas=%d\n", w.Name, cfg, rate, maxReplicas)
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
