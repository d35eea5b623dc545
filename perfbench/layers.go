package main

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// servingSpans are the simulator calls whose self time is the serving
// layer's event loop; profile lookups made inside them are price fills.
var servingSpans = map[string]bool{"serving.Simulate": true, "serving.SimulateFleet": true}

// traced replays the list in-process twice from the same snapshot —
// untraced, then with spans — checks both replays' response bytes
// against the daemon's, writes the span file and computes the per-layer
// metrics.
func traced(o options, snap snapshotInfo, list List, conns int, hp httpPhase, host Host) (report, []string, error) {
	var r report
	var problems []string
	n := len(list.Requests)

	eng, _, _, err := loadEngine(snap.Path, runtime.NumCPU())
	if err != nil {
		return r, nil, fmt.Errorf("loading snapshot for the replay: %w", err)
	}
	runtime.GC()
	plain := replayList(eng, list, conns, false)
	eng = nil
	runtime.GC()
	eng, loaded, loadTime, err := loadEngine(snap.Path, runtime.NumCPU())
	if err != nil {
		return r, nil, fmt.Errorf("loading snapshot for the traced replay: %w", err)
	}
	runtime.GC()
	tr := replayList(eng, list, conns, true)

	for name, run := range map[string]replayRun{"untraced": plain, "traced": tr} {
		for i, it := range run.items {
			if it.err != nil {
				problems = append(problems, fmt.Sprintf("%s replay of request %d (%s) failed: %v", name, i, list.Requests[i].Path, it.err))
				break
			}
		}
		d := bodyDigest(func(i int) []byte { return run.items[i].body }, n)
		if d != hp.digest {
			problems = append(problems, fmt.Sprintf("%s replay response digest %s differs from the daemon's %s", name, d[:16], hp.digest[:16]))
		}
		if run.engine.Misses != list.Misses {
			problems = append(problems, fmt.Sprintf("%s replay made %d engine misses, designed %d", name, run.engine.Misses, list.Misses))
		}
	}
	spanPath := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeSpans(spanPath, o.workload, o.seed, tr.spans); err != nil {
		return r, nil, err
	}
	fmt.Printf("span file %s (%d spans)\n", spanPath, len(tr.spans))

	// Self time per span, summed per layer and per name.
	self := spanSelf(tr.spans)
	byID := make(map[int64]Span, len(tr.spans))
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	layerNS := make(map[string]int64)
	nameNS := make(map[string]int64)  // self time per span name
	nameDur := make(map[string]int64) // full duration per span name
	count := make(map[string]int64)
	items := make(map[string]int64)
	var rootNS, otherNS, servingNS, fills, simRequests int64
	for _, s := range tr.spans {
		st := self[s.ID]
		nameNS[s.Name] += st
		nameDur[s.Name] += s.EndNS - s.StartNS
		count[s.Name]++
		items[s.Name] += s.Items
		if s.Name == "request" {
			rootNS += s.EndNS - s.StartNS
			otherNS += st
			continue
		}
		layerNS[spanLayer[s.Name]] += st
		if servingSpans[s.Name] {
			servingNS += st
			simRequests += s.Items
		}
		if s.Name == "engine.EvalProfiles" && servingSpans[byID[s.Parent].Name] {
			fills++
		}
	}
	perReq := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	reqs := fmt.Sprintf("(%d requests)", n)

	// server.self: what the daemon adds around the same work — HTTP,
	// routing, coalescing and the compute goroutine hop.
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = float64((hp.items[i].latency - plain.items[i].latency).Nanoseconds()) / 1e6
	}
	r.add("server.self_ms_p50", percentile(diffs, 50), "ms", "(HTTP minus untraced replay latency, per request)")
	r.add("server.encode_ms_per_req", perReq(nameDur["server.encode"]), "ms", reqs)
	r.add("server.coalesced", float64(hp.after.Coalesced-hp.before.Coalesced), "count", "(/v1/stats delta)")
	r.add("server.rejected", float64(hp.after.Rejected-hp.before.Rejected), "count", "(/v1/stats delta)")

	dsCalls := count["experiments.ServedWorkloadByName"] + count["dataset.Synthetic"]
	r.add("dataset.ms_per_req", perReq(layerNS["dataset"]), "ms", reqs)
	r.add("dataset.calls", float64(dsCalls), "count", "(corpus builds)")

	st := statsDelta(hp.before.Engine, hp.after.Engine)
	r.add("engine.hits", float64(st.Hits), "count", "(/v1/stats delta)")
	r.add("engine.misses", float64(st.Misses), "count", "(/v1/stats delta)")
	r.add("engine.dedups", float64(st.Dedups), "count", "(/v1/stats delta)")
	r.add("engine.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio", "(hits / lookups)")
	r.add("engine.ms_per_req", perReq(layerNS["engine"]), "ms", fmt.Sprintf("(%d profile-source calls)", count["engine.TrainProfiles"]+count["engine.EvalProfiles"]))
	r.add("engine.ms_per_miss", ratio(float64(layerNS["engine"])/1e6, float64(tr.engine.Misses)), "ms", fmt.Sprintf("(%d misses; 0 when none)", tr.engine.Misses))
	r.add("engine.snapshot_load_s", loadTime.Seconds(), "s", fmt.Sprintf("(%d entries)", loaded))
	r.add("engine.snapshot_entries", float64(snap.Entries), "count", "(snapshot file)")
	r.add("engine.snapshot_mb", float64(snap.Bytes)/1e6, "MB", "(snapshot file)")
	r.add("engine.entries", float64(hp.after.Engine.Entries), "count", "(cache size at end of run)")

	r.add("trainer.ms_per_req", perReq(layerNS["trainer"]), "ms", fmt.Sprintf("(%d simulations, %d sweeps)", count["engine.Simulate"], count["engine.Sweep"]))
	r.add("trainer.iterations", float64(items["engine.Simulate"]+items["engine.Sweep"]), "count", "(simulated training steps)")
	r.add("core.ms_per_req", perReq(layerNS["core"]), "ms", fmt.Sprintf("(%d selections)", count["core.Select"]+count["core.Frequent"]+count["core.Median"]+count["core.Worst"]))
	r.add("workload.ms_per_req", perReq(layerNS["workload"]), "ms", reqs)
	r.add("workload.trace_requests", float64(items["serving.PoissonTrace"]+items["workload.Generate"]), "count", "(generated arrivals)")

	r.add("serving.ms_per_req", perReq(servingNS), "ms", fmt.Sprintf("(%d simulations)", count["serving.Simulate"]+count["serving.SimulateFleet"]))
	r.add("serving.sim_requests", float64(simRequests), "count", "(simulated arrivals)")
	r.add("serving.ns_per_sim_request", ratio(float64(servingNS), float64(simRequests)), "ns", fmt.Sprintf("(%d arrivals)", simRequests))
	r.add("serving.price_fills", float64(fills), "count", "(profile lookups from the event loop)")
	r.add("serving.summary_ms_per_req", perReq(nameDur["serving.Summary"]), "ms", fmt.Sprintf("(%d summaries)", count["serving.Summary"]))

	plans := float64(count["planner.Solve"])
	r.add("planner.probes_per_plan", ratio(float64(count["planner.probe"]), plans), "count", fmt.Sprintf("(%d plans)", count["planner.Solve"]))
	r.add("planner.probe_ms_per_plan", ratio(float64(nameDur["planner.probe"])/1e6, plans), "ms", fmt.Sprintf("(%d probes)", count["planner.probe"]))
	r.add("planner.self_ms_per_plan", ratio(float64(nameNS["planner.Solve"])/1e6, plans), "ms", fmt.Sprintf("(%d plans)", count["planner.Solve"]))

	r.add("runtime.alloc_mb_per_req", float64(plain.allocBytes)/1e6/float64(n), "MB", "(untraced replay)")
	r.add("runtime.gc_cycles", float64(plain.gcCycles), "count", "(untraced replay)")

	r.add("other.ms_per_req", perReq(otherNS), "ms", "(replay time outside every layer call)")
	r.add("other.pct", 100*ratio(float64(otherNS), float64(rootNS)), "%", "(of traced request time)")
	r.add("trace.overhead_pct", 100*(tr.wall.Seconds()/plain.wall.Seconds()-1), "%", fmt.Sprintf("(traced %.2f s vs untraced %.2f s)", tr.wall.Seconds(), plain.wall.Seconds()))
	r.add("host.ref_ms", host.RefMS, "ms", "(reference spin, median of before and after)")

	fmt.Printf("layer self time per request (ms): ")
	for _, l := range []string{"server", "dataset", "engine", "trainer", "core", "workload", "serving", "planner"} {
		fmt.Printf("%s=%.3f ", l, perReq(layerNS[l]))
	}
	fmt.Printf("other=%.3f of %.3f\n", perReq(otherNS), perReq(rootNS))
	return r, problems, nil
}
