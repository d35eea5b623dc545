package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/planner"
	"seqpoint/internal/server"
	"seqpoint/internal/serving"
	"seqpoint/internal/trainer"
	"seqpoint/internal/workload"
)

// The replay executes a request list in-process by calling the same
// public functions the daemon's handlers call, in the same order, on an
// engine restored from the same snapshot. Its response bytes must equal
// the daemon's: the simulator is deterministic, so equal bytes show the
// spans time the work the daemon does. Requests are fully specified by
// the generator, so the handlers' defaulting and validation glue has
// nothing to change and is not repeated here.

// replayItem is one replayed request's outcome.
type replayItem struct {
	body    []byte
	latency time.Duration
	err     error
}

// replayRun is one replay of a whole list.
type replayRun struct {
	items []replayItem
	wall  time.Duration
	spans []Span
	// allocBytes, gcCycles and engine are the runtime and cache-counter
	// deltas over the replay.
	allocBytes uint64
	gcCycles   uint32
	engine     engine.Stats
}

// replayList replays the list over conns goroutines, pulling requests in
// list order the way the HTTP clients do. With traced set, every request
// records spans.
func replayList(eng *engine.Engine, list List, conns int, traced bool) replayRun {
	n := len(list.Requests)
	run := replayRun{items: make([]replayItem, n)}
	recs := make([]*recorder, n)
	var ids, next atomic.Int64
	var before, after runtime.MemStats
	statsBefore := eng.Stats()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var rec *recorder
				if traced {
					rec = newRecorder(i, t0, &ids)
					recs[i] = rec
				}
				start := time.Now()
				h := rec.begin("request")
				body, err := replayOne(eng, list.Requests[i], rec)
				rec.end(h, 0)
				run.items[i] = replayItem{body: body, latency: time.Since(start), err: err}
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	run.allocBytes = after.TotalAlloc - before.TotalAlloc
	run.gcCycles = after.NumGC - before.NumGC
	run.engine = statsDelta(statsBefore, eng.Stats())
	for _, rec := range recs {
		if rec != nil {
			run.spans = append(run.spans, rec.spans...)
		}
	}
	return run
}

// replayOne executes one request as its handler would.
func replayOne(eng *engine.Engine, req Request, rec *recorder) ([]byte, error) {
	var src trainer.ProfileSource = eng
	if rec != nil {
		src = timedSource{src: eng, rec: rec}
	}
	switch req.Path {
	case "/v1/simulate":
		var r server.SimulateRequest
		if err := decode(rec, req.Body, &r); err != nil {
			return nil, err
		}
		return replaySimulate(eng, src, rec, r)
	case "/v1/seqpoint":
		var r server.SeqPointRequest
		if err := decode(rec, req.Body, &r); err != nil {
			return nil, err
		}
		return replaySeqPoint(eng, src, rec, r)
	case "/v1/sweep":
		var r server.SweepRequest
		if err := decode(rec, req.Body, &r); err != nil {
			return nil, err
		}
		return replaySweep(eng, src, rec, r)
	case "/v1/serve":
		var r server.ServeRequest
		if err := decode(rec, req.Body, &r); err != nil {
			return nil, err
		}
		return replayServe(src, rec, r)
	case "/v1/fleet":
		var r server.FleetRequest
		if err := decode(rec, req.Body, &r); err != nil {
			return nil, err
		}
		return replayFleet(src, rec, r)
	case "/v1/plan":
		var r server.PlanRequest
		if err := decode(rec, req.Body, &r); err != nil {
			return nil, err
		}
		return replayPlan(src, rec, r)
	}
	return nil, fmt.Errorf("no replay for %s", req.Path)
}

// decode mirrors the handlers' strict request decoding.
func decode(rec *recorder, body []byte, dst any) error {
	h := rec.begin("server.decode")
	defer rec.end(h, 0)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// encode mirrors the handlers' response marshalling.
func encode(rec *recorder, v any) ([]byte, error) {
	h := rec.begin("server.encode")
	defer rec.end(h, 0)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func servedWorkload(rec *recorder, model string, seed int64) (experiments.Workload, error) {
	h := rec.begin("experiments.ServedWorkloadByName")
	defer rec.end(h, 0)
	return experiments.ServedWorkloadByName(model, seed)
}

func synthetic(rec *recorder, model string, seqLens []int, vocab int) (*dataset.Corpus, error) {
	h := rec.begin("dataset.Synthetic")
	defer rec.end(h, int64(len(seqLens)))
	return dataset.Synthetic(fmt.Sprintf("custom-%s", model), seqLens, vocab)
}

func configByName(name string) (gpusim.Config, error) {
	for _, c := range gpusim.TableII() {
		if c.Name == name {
			return c, nil
		}
	}
	return gpusim.Config{}, fmt.Errorf("unknown config %q", name)
}

func buildCluster(r server.SimulateRequest) (gpusim.ClusterConfig, error) {
	cl := gpusim.DefaultCluster(r.GPUs)
	if r.Topology != "" {
		topo, err := gpusim.ParseTopology(r.Topology)
		if err != nil {
			return cl, err
		}
		if cl.GPUs > 1 {
			cl.Topology = topo
		}
	}
	if r.LinkGBps != 0 {
		cl.LinkGBps = r.LinkGBps
	}
	if r.LinkLatencyUS != 0 {
		cl.LinkLatencyUS = r.LinkLatencyUS
	}
	if r.Overlap != nil {
		cl.Overlap = *r.Overlap
	}
	return cl, cl.Validate()
}

// buildSpec mirrors the training handlers' spec resolution.
func buildSpec(src trainer.ProfileSource, rec *recorder, r server.SimulateRequest) (trainer.Spec, gpusim.Config, error) {
	w, err := servedWorkload(rec, r.Model, r.Seed)
	if err != nil {
		return trainer.Spec{}, gpusim.Config{}, err
	}
	hw, err := configByName(r.Config)
	if err != nil {
		return trainer.Spec{}, gpusim.Config{}, err
	}
	cl, err := buildCluster(r)
	if err != nil {
		return trainer.Spec{}, gpusim.Config{}, err
	}
	train, eval := w.Train, w.Eval
	if len(r.SeqLens) > 0 {
		syn, err := synthetic(rec, r.Model, r.SeqLens, 1000)
		if err != nil {
			return trainer.Spec{}, gpusim.Config{}, err
		}
		train, eval = syn, syn
	}
	if !r.Eval {
		eval = nil
	}
	return trainer.Spec{
		Model: w.Model, Train: train, Eval: eval, Batch: r.Batch, Epochs: r.Epochs,
		Schedule: w.Schedule, Seed: r.Seed, Cluster: cl, Profiles: src,
	}, hw, nil
}

func simulate(eng *engine.Engine, rec *recorder, spec trainer.Spec, hw gpusim.Config) (*trainer.Run, error) {
	h := rec.begin("engine.Simulate")
	run, err := eng.Simulate(spec, hw)
	var iters int64
	if run != nil {
		iters = int64(run.Iterations)
	}
	rec.end(h, iters)
	return run, err
}

func runSummary(rec *recorder, run *trainer.Run) trainer.RunSummary {
	h := rec.begin("trainer.Summary")
	defer rec.end(h, 0)
	return run.Summary()
}

func replaySimulate(eng *engine.Engine, src trainer.ProfileSource, rec *recorder, r server.SimulateRequest) ([]byte, error) {
	spec, hw, err := buildSpec(src, rec, r)
	if err != nil {
		return nil, err
	}
	run, err := simulate(eng, rec, spec, hw)
	if err != nil {
		return nil, err
	}
	sum := runSummary(rec, run)
	h := rec.begin("server.encode")
	defer rec.end(h, 0)
	return sum.Serialize()
}

func replaySeqPoint(eng *engine.Engine, src trainer.ProfileSource, rec *recorder, r server.SeqPointRequest) ([]byte, error) {
	method := r.Method
	if method == "" {
		method = "seqpoint"
	}
	var selectFn func([]core.SLRecord) (core.Selection, error)
	switch method {
	case "seqpoint":
		opts := core.Options{MaxUniqueNoBinning: r.MaxUniqueNoBinning, InitialBins: r.InitialBins, ErrorThresholdPct: r.ErrorThresholdPct}
		selectFn = func(recs []core.SLRecord) (core.Selection, error) { return core.Select(recs, opts) }
	case "frequent":
		selectFn = core.Frequent
	case "median":
		selectFn = core.Median
	case "worst":
		selectFn = core.Worst
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
	spec, hw, err := buildSpec(src, rec, r.SimulateRequest)
	if err != nil {
		return nil, err
	}
	run, err := simulate(eng, rec, spec, hw)
	if err != nil {
		return nil, err
	}
	h := rec.begin("trainer.EpochSummary")
	sum, err := run.EpochSummary(0)
	rec.end(h, 0)
	if err != nil {
		return nil, err
	}
	recs := make([]core.SLRecord, len(sum))
	for i, sl := range sum {
		recs[i] = core.SLRecord{SeqLen: sl.SeqLen, Freq: sl.Count, Stat: sl.IterTimeUS}
	}
	h = rec.begin("core." + map[string]string{"seqpoint": "Select", "frequent": "Frequent", "median": "Median", "worst": "Worst"}[method])
	sel, err := selectFn(recs)
	rec.end(h, int64(len(recs)))
	if err != nil {
		return nil, err
	}
	resp := server.SeqPointResponse{
		Model: r.Model, Config: r.Config, Method: method, UniqueSLs: len(recs),
		Bins: sel.Bins, Binned: sel.Binned, ErrorPct: sel.ErrorPct,
		Points: make([]server.SeqPointResult, len(sel.Points)),
	}
	for i, p := range sel.Points {
		resp.Points[i] = server.SeqPointResult{SeqLen: p.SeqLen, Weight: p.Weight, IterTimeUS: p.Stat}
	}
	return encode(rec, resp)
}

func replaySweep(eng *engine.Engine, src trainer.ProfileSource, rec *recorder, r server.SweepRequest) ([]byte, error) {
	tasks := make([]engine.SweepTask, len(r.Tasks))
	for i, tr := range r.Tasks {
		spec, hw, err := buildSpec(src, rec, tr)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", i, err)
		}
		name := fmt.Sprintf("%s on %s gpus=%d batch=%d epochs=%d", tr.Model, tr.Config, tr.GPUs, tr.Batch, tr.Epochs)
		tasks[i] = engine.SweepTask{Name: name, Spec: spec, Config: hw}
	}
	h := rec.begin("engine.Sweep")
	results := eng.Sweep(context.Background(), tasks, r.Parallelism)
	var iters int64
	for _, res := range results {
		if res.Run != nil {
			iters += int64(res.Run.Iterations)
		}
	}
	rec.end(h, iters)
	resp := server.SweepResponse{Results: make([]server.SweepTaskResult, len(results))}
	for i, res := range results {
		out := server.SweepTaskResult{Name: res.Task.Name}
		if res.Err != nil {
			out.Error = res.Err.Error()
		} else {
			sum := runSummary(rec, res.Run)
			out.Summary = &sum
		}
		resp.Results[i] = out
	}
	return encode(rec, resp)
}

func kvConfig(r server.WorkloadSpec) *serving.KVConfig {
	if r.KVCapacityGB == nil {
		return nil
	}
	return &serving.KVConfig{CapacityBytes: *r.KVCapacityGB * 1e9, DecodeSteps: r.DecodeSteps, Preempt: r.KVPreempt}
}

// buildWorkloadSetup mirrors the serving handlers' envelope resolution.
func buildWorkloadSetup(rec *recorder, req server.WorkloadSpec) (experiments.Workload, gpusim.Config, serving.Policy, serving.Trace, error) {
	var zeroT serving.Trace
	w, err := servedWorkload(rec, req.Model, req.Seed)
	if err != nil {
		return w, gpusim.Config{}, nil, zeroT, err
	}
	hw, err := configByName(req.Config)
	if err != nil {
		return w, hw, nil, zeroT, err
	}
	policy, err := serving.ParsePolicy(req.Policy, req.Batch, *req.TimeoutUS)
	if err != nil {
		return w, hw, nil, zeroT, err
	}
	if len(req.SeqLens) > 0 {
		corpus, err := synthetic(rec, req.Model, req.SeqLens, w.Train.Vocab)
		if err != nil {
			return w, hw, nil, zeroT, err
		}
		w.Train = corpus
	}
	if req.TraceFile != "" {
		return w, hw, nil, zeroT, errors.New("trace_file requests are not replayed")
	}
	var trace serving.Trace
	if len(req.Tenants) > 0 || req.Pattern != "" {
		h := rec.begin("workload.Generate")
		trace, err = workload.Generate(genSpec(req, w))
		rec.end(h, int64(len(trace.Requests)))
	} else {
		h := rec.begin("serving.PoissonTrace")
		trace, err = serving.PoissonTrace(w.Train, req.Requests, req.Rate, req.Seed)
		rec.end(h, int64(len(trace.Requests)))
	}
	if err != nil {
		return w, hw, nil, zeroT, err
	}
	h := rec.begin("workload.Validate")
	err = trace.Validate()
	rec.end(h, 0)
	return w, hw, policy, trace, err
}

// genSpec mirrors the envelope's mapping onto the workload generator.
func genSpec(req server.WorkloadSpec, w experiments.Workload) workload.GenSpec {
	cohorts := make([]workload.Cohort, 0, max(1, len(req.Tenants)))
	for _, t := range req.Tenants {
		weight := t.Weight
		if weight == 0 {
			weight = 1
		}
		sls := t.SeqLens
		if len(sls) == 0 {
			sls = w.Train.Lengths
		}
		cohorts = append(cohorts, workload.Cohort{
			Class: t.Class, Tenants: t.Count, Weight: weight, ZipfS: t.ZipfS,
			SeqLens: sls, DecodeSteps: t.DecodeSteps, Burst: t.Burst,
		})
	}
	if len(cohorts) == 0 {
		cohorts = append(cohorts, workload.Cohort{Tenants: 1, Weight: 1, SeqLens: w.Train.Lengths})
	}
	pattern := workload.Pattern{Kind: req.Pattern}
	if req.Pattern == workload.PatternDiurnal {
		pattern.PeriodUS = *req.PatternPeriodUS
		pattern.Amplitude = *req.PatternAmplitude
	}
	return workload.GenSpec{Requests: req.Requests, RatePerSec: req.Rate, Seed: req.Seed, Pattern: pattern, Cohorts: cohorts}
}

func replayServe(src trainer.ProfileSource, rec *recorder, r server.ServeRequest) ([]byte, error) {
	w, hw, policy, trace, err := buildWorkloadSetup(rec, r.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	h := rec.begin("serving.Simulate")
	res, err := serving.Simulate(serving.Spec{Model: w.Model, Trace: trace, Policy: policy, Profiles: src, KV: kvConfig(r.WorkloadSpec)}, hw)
	rec.end(h, int64(len(trace.Requests)))
	if err != nil {
		return nil, err
	}
	h = rec.begin("serving.Summary")
	sum := res.Summary()
	rec.end(h, 0)
	return encode(rec, server.ServeResponse{Model: r.Model, Config: r.Config, Trace: trace.Name, RatePerSec: r.Rate, Summary: sum})
}

func replayFleet(src trainer.ProfileSource, rec *recorder, r server.FleetRequest) ([]byte, error) {
	w, hw, policy, trace, err := buildWorkloadSetup(rec, r.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	router, err := serving.ParseRouting(r.Routing, r.Seed)
	if err != nil {
		return nil, err
	}
	if r.Autoscale != nil || r.Disagg != nil {
		return nil, errors.New("autoscaled and disaggregated fleets are not replayed")
	}
	h := rec.begin("serving.SimulateFleet")
	res, err := serving.SimulateFleet(serving.FleetSpec{
		Model: w.Model, Trace: trace, Policy: policy, Router: router, Replicas: r.Replicas,
		QueueCap: r.QueueCap, Parallelism: r.Parallelism, Profiles: src, KV: kvConfig(r.WorkloadSpec),
	}, hw)
	rec.end(h, int64(len(trace.Requests)))
	if err != nil {
		return nil, err
	}
	h = rec.begin("serving.Summary")
	sum := res.Summary()
	rec.end(h, 0)
	return encode(rec, server.FleetResponse{
		Model: r.Model, Config: r.Config, Trace: trace.Name, Routing: router.Name(), RatePerSec: r.Rate, Summary: sum,
	})
}

func replayPlan(src trainer.ProfileSource, rec *recorder, r server.PlanRequest) ([]byte, error) {
	w, hw, policy, setupTrace, err := buildWorkloadSetup(rec, r.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	w.Batch, w.Seed = r.Batch, r.Seed
	cfg := experiments.PlanProbeConfig{
		Requests: r.Requests, QueueCap: r.QueueCap, KV: kvConfig(r.WorkloadSpec),
		Policy: policy, PolicyTimeoutUS: *r.TimeoutUS,
	}
	if len(r.Tenants) > 0 || r.Pattern != "" {
		cfg.Trace = &setupTrace
	}
	h := rec.begin("experiments.PlanProbe")
	probe, err := experiments.PlanProbe(src, w, hw, cfg)
	rec.end(h, 0)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		inner := probe
		probe = func(c planner.Candidate, rate float64) (serving.FleetSummary, error) {
			h := rec.begin("planner.probe")
			sum, err := inner(c, rate)
			rec.end(h, int64(sum.Requests))
			return sum, err
		}
	}
	h = rec.begin("planner.Solve")
	plan, err := planner.Solve(planner.Spec{
		SLO: planner.SLO{
			TTFTP99US: r.SLO.TTFTP99US, LatencyP99US: r.SLO.LatencyP99US, MinThroughputRPS: r.SLO.MinThroughputRPS,
			MaxDropRatePct: r.SLO.MaxDropRatePct, TenantTTFTP99US: r.SLO.TenantTTFTP99US,
		},
		RatePerSec: r.Rate, MaxReplicas: r.MaxReplicas, Routings: r.Routings,
		Policies: r.Policies, KVCapacitiesGB: r.KVCapacitiesGB, Probe: probe,
	})
	rec.end(h, 0)
	if err != nil {
		return nil, err
	}
	return encode(rec, server.PlanResponse{Model: r.Model, Config: r.Config, RatePerSec: r.Rate, Plan: plan})
}

func statsDelta(a, b engine.Stats) engine.Stats {
	return engine.Stats{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Dedups: b.Dedups - a.Dedups, Entries: b.Entries}
}
