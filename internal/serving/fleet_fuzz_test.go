package serving

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
)

// FuzzFleetInvariants drives randomized fleets — arbitrary seeds,
// rates, replica counts, queue bounds, routers, policies, and
// autoscaler settings — through the structural invariants every run
// must satisfy:
//
//   - conservation: served + rejected == arrived, and the served and
//     rejected ID sets partition the trace;
//   - causality: every served request has arrival <= start <= done,
//     so waits and latencies are non-negative;
//   - attribution: per-replica served/batch counts sum to the fleet
//     totals, and rejections only occur under a bounded queue;
//   - memory (kvMode > 0): no replica's cache peak exceeds the
//     capacity ceiling, first-token instants sit inside each request's
//     service window, and preemption counts attribute to replicas;
//   - tenancy (tenantMode > 0): every served metric and rejection
//     carries its trace request's tenant, the per-tenant roll-ups
//     conserve arrivals (requests = served + rejected, summing to the
//     fleet totals), and — for tenant-agnostic policies — the
//     untenanted shadow of the trace reproduces the summary byte-for-
//     byte outside the per-tenant block;
//   - generalization: a 1-replica round-robin unbounded fleet matches
//     the single-queue reference loop request by request, KV model
//     included;
//   - early stop: under stop rules whose caps sit at, just below and
//     well below the full run's own p99 and drop rate, a run misses a
//     cap exactly when the full run does. A stopped run is a prefix of
//     the full run; one that did not stop is the full run;
//   - reuse: a Runner that has just run a different spec reports the
//     summary SimulateFleet does, for the full run and for every stop
//     rule's, one after another;
//   - snapshot: at every routing decision of every run above, the
//     views the router is handed and the eligible count are a full
//     rebuild's from the replicas (checkKeptViews).
func FuzzFleetInvariants(f *testing.F) {
	f.Add(int64(1), 200.0, uint8(40), uint8(1), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(0))
	f.Add(int64(7), 900.0, uint8(120), uint8(3), uint8(4), uint8(1), uint8(1), false, uint8(0), uint8(3))
	f.Add(int64(42), 5000.0, uint8(200), uint8(5), uint8(2), uint8(2), uint8(2), true, uint8(0), uint8(2))
	f.Add(int64(-3), 50.0, uint8(10), uint8(2), uint8(1), uint8(3), uint8(1), true, uint8(0), uint8(0))
	f.Add(int64(99), 1e6, uint8(255), uint8(8), uint8(8), uint8(2), uint8(0), false, uint8(0), uint8(7))
	f.Add(int64(11), 800.0, uint8(96), uint8(4), uint8(0), uint8(4), uint8(1), false, uint8(5), uint8(2))
	f.Add(int64(13), 3000.0, uint8(180), uint8(6), uint8(3), uint8(1), uint8(3), false, uint8(2), uint8(3))
	// Autoscaled fleets that scale up and back down: KV off with
	// queue-cap rejections, KV evict with scale-downs between arrivals,
	// KV evict, and KV block with a queue cap.
	f.Add(int64(21), 3000.0, uint8(200), uint8(5), uint8(4), uint8(1), uint8(1), true, uint8(0), uint8(0))
	f.Add(int64(1), 800.0, uint8(200), uint8(5), uint8(4), uint8(1), uint8(1), true, uint8(4), uint8(0))
	f.Add(int64(33), 3000.0, uint8(240), uint8(6), uint8(16), uint8(4), uint8(4), true, uint8(4), uint8(0))
	f.Add(int64(47), 2500.0, uint8(240), uint8(5), uint8(8), uint8(4), uint8(4), true, uint8(5), uint8(0))

	f.Fuzz(func(t *testing.T, seed int64, rate float64, n, replicas, queueCap, routing, policyKind uint8, autoscale bool, kvMode, tenantMode uint8) {
		if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) || rate > 1e8 {
			t.Skip()
		}
		requests := int(n)%256 + 1
		nReplicas := int(replicas)%8 + 1
		cap := int(queueCap) % 16 // 0 = unbounded
		routeHook = func(f *fleetRun, _ bool) { checkKeptViews(t, f, true) }
		defer func() { routeHook = nil }()

		corpus, err := dataset.Synthetic("fuzz", fuzzLengths(seed), 1000)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := PoissonTrace(corpus, requests, rate, seed)
		if err != nil || trace.Validate() != nil {
			t.Skip() // degenerate rates can overflow arrivals
		}
		// tenantMode > 0 stamps 1-3 deterministic tenant labels across
		// the trace, cycling by arrival index with a mode-dependent
		// offset so tenant runs vary without extra randomness.
		nTenants := int(tenantMode) % 4
		if nTenants > 0 {
			for i := range trace.Requests {
				trace.Requests[i].Tenant = fmt.Sprintf("t%d", (i+int(tenantMode))%nTenants)
			}
		}

		var policy Policy
		switch policyKind % 4 {
		case 0:
			policy, err = NewFixedBatch(int(policyKind)%7 + 1)
		case 1:
			policy, err = NewDynamicBatch(int(policyKind)%5+1, float64(int(policyKind))*250)
		case 2:
			policy, err = NewLengthAware(int(policyKind)%6 + 1)
		default:
			policy, err = NewWFQBatch(int(policyKind)%5+1, float64(int(policyKind))*125)
		}
		if err != nil {
			t.Fatal(err)
		}
		// kvMode > 0 enables the capacity model. The per-token footprint
		// is overridden to 1000B so peaks are hand-computable; the
		// tightest capacity (100KB) still exceeds the largest single
		// request (at most (61+16)×1000B), so admission never rejects on
		// size and every run exercises the batching/preemption path.
		var kv *KVConfig
		if kvMode > 0 {
			kv = &KVConfig{
				CapacityBytes: float64(int(kvMode)%4+1) * 100_000,
				DecodeSteps:   int(kvMode) % 17,
				BytesPerToken: 1000,
				Preempt:       []string{PreemptEvict, PreemptBlock}[int(kvMode)%2],
			}
		}
		routerNames := []string{RoutingRoundRobin, RoutingLeastOutstanding, RoutingJSQ, RoutingPowerOfTwo}
		if kv != nil {
			routerNames = append(routerNames, RoutingKV)
		}
		router, err := ParseRouting(routerNames[int(routing)%len(routerNames)], seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := FleetSpec{
			Model:    models.NewGNMT(),
			Trace:    trace,
			Policy:   policy,
			Router:   router,
			Replicas: nReplicas,
			QueueCap: cap,
			Profiles: &stubSource{},
			KV:       kv,
		}
		if autoscale {
			spec.Autoscale = &AutoscaleConfig{
				Min: 1, Max: nReplicas, UpDepth: float64(int(queueCap)%4 + 1),
				DownDepth: 0.5, CooldownUS: float64(int(routing)) * 100,
			}
			spec.Replicas = 1
		}
		res, err := SimulateFleet(spec, gpusim.VegaFE())
		if err != nil {
			t.Fatalf("SimulateFleet: %v", err)
		}

		// Conservation: served + rejected partition the trace.
		if got := len(res.Requests) + len(res.Rejections); got != requests {
			t.Fatalf("served %d + rejected %d != arrived %d", len(res.Requests), len(res.Rejections), requests)
		}
		seen := make(map[int]bool, requests)
		for _, m := range res.Requests {
			if m.ID < 0 || m.ID >= requests || seen[m.ID] {
				t.Fatalf("served ID %d out of range or duplicated", m.ID)
			}
			seen[m.ID] = true
		}
		for _, rej := range res.Rejections {
			if rej.ID < 0 || rej.ID >= requests || seen[rej.ID] {
				t.Fatalf("rejected ID %d out of range or duplicated", rej.ID)
			}
			seen[rej.ID] = true
			if rej.Reason != RejectReasonQueueFull && rej.Reason != RejectReasonKVCapacity {
				t.Fatalf("rejection reason %q, want %q or %q", rej.Reason, RejectReasonQueueFull, RejectReasonKVCapacity)
			}
		}
		if cap == 0 && len(res.Rejections) > 0 {
			// The KV capacities above always admit single requests, so an
			// unbounded queue still implies zero rejections.
			t.Fatalf("%d rejections under an unbounded queue", len(res.Rejections))
		}

		// Causality: arrival <= start <= done for every served request,
		// and the makespan is the last completion.
		var lastDone float64
		for _, m := range res.Requests {
			if m.WaitUS() < 0 {
				t.Fatalf("request %d has negative wait %v", m.ID, m.WaitUS())
			}
			if m.DoneUS < m.StartUS {
				t.Fatalf("request %d done %v before start %v", m.ID, m.DoneUS, m.StartUS)
			}
			if m.Replica < 0 || m.Replica >= res.Replicas {
				t.Fatalf("request %d served by out-of-range replica %d", m.ID, m.Replica)
			}
			if m.DoneUS > lastDone {
				lastDone = m.DoneUS
			}
		}
		if lastDone != res.MakespanUS {
			t.Fatalf("makespan %v != last completion %v", res.MakespanUS, lastDone)
		}

		// Attribution: per-replica counts sum to the fleet totals.
		var served, batches int
		var busy float64
		for _, rs := range res.ReplicaStats {
			served += rs.Served
			batches += rs.Batches
			busy += rs.BusyUS
		}
		if served != len(res.Requests) {
			t.Fatalf("replica served sum %d != fleet served %d", served, len(res.Requests))
		}
		if batches != res.Batches {
			t.Fatalf("replica batch sum %d != fleet batches %d", batches, res.Batches)
		}
		if diff := math.Abs(busy - res.BusyUS); diff > 1e-6*(1+res.BusyUS) {
			t.Fatalf("replica busy sum %v != fleet busy %v", busy, res.BusyUS)
		}
		if res.ReplicaSeconds < 0 {
			t.Fatalf("negative replica-seconds %v", res.ReplicaSeconds)
		}

		// Tenancy: every outcome carries its trace request's tenant, and
		// the per-tenant roll-ups conserve arrivals exactly.
		tenantOf := make(map[int]string, requests)
		arrivedBy := make(map[string]int)
		for _, r := range trace.Requests {
			tenantOf[r.ID] = r.Tenant
			arrivedBy[r.Tenant]++
		}
		for _, m := range res.Requests {
			if m.Tenant != tenantOf[m.ID] {
				t.Fatalf("request %d served as tenant %q, trace says %q", m.ID, m.Tenant, tenantOf[m.ID])
			}
		}
		for _, rej := range res.Rejections {
			if rej.Tenant != tenantOf[rej.ID] {
				t.Fatalf("request %d rejected as tenant %q, trace says %q", rej.ID, rej.Tenant, tenantOf[rej.ID])
			}
		}
		sum := res.Summary()
		if nTenants == 0 {
			if sum.PerTenant != nil {
				t.Fatalf("untenanted run produced %d per-tenant rows", len(sum.PerTenant))
			}
		} else {
			if len(sum.PerTenant) != len(arrivedBy) {
				t.Fatalf("summary has %d per-tenant rows, trace has %d tenants", len(sum.PerTenant), len(arrivedBy))
			}
			var total int
			for _, ts := range sum.PerTenant {
				if ts.Requests != ts.Served+ts.Rejected {
					t.Fatalf("tenant %q: %d requests != %d served + %d rejected", ts.Tenant, ts.Requests, ts.Served, ts.Rejected)
				}
				if ts.Requests != arrivedBy[ts.Tenant] {
					t.Fatalf("tenant %q: summary saw %d arrivals, trace sent %d", ts.Tenant, ts.Requests, arrivedBy[ts.Tenant])
				}
				total += ts.Requests
			}
			if total != requests {
				t.Fatalf("per-tenant arrivals sum to %d, fleet saw %d", total, requests)
			}
		}

		// Memory: the cache model never overdraws its ceiling, and
		// first-token instants are inside each service window.
		if kv != nil {
			if res.KV == nil {
				t.Fatal("KV-enabled run produced no KV stats")
			}
			if res.KV.PeakBytes > kv.CapacityBytes {
				t.Fatalf("fleet cache peak %v above the %v-byte capacity", res.KV.PeakBytes, kv.CapacityBytes)
			}
			var preempts int
			for _, rs := range res.ReplicaStats {
				if rs.KVPeakBytes > kv.CapacityBytes {
					t.Fatalf("replica %d cache peak %v above the %v-byte capacity", rs.Replica, rs.KVPeakBytes, kv.CapacityBytes)
				}
				preempts += rs.Preemptions
			}
			if preempts != res.KV.Preemptions {
				t.Fatalf("replica preemption sum %d != fleet preemptions %d", preempts, res.KV.Preemptions)
			}
			for _, m := range res.Requests {
				if m.FirstUS < m.StartUS || m.FirstUS > m.DoneUS {
					t.Fatalf("request %d first-token %v outside service window [%v, %v]", m.ID, m.FirstUS, m.StartUS, m.DoneUS)
				}
			}
		} else if res.KV != nil {
			t.Fatal("KV-disabled run produced KV stats")
		}

		// Tenant neutrality: under every tenant-agnostic policy (all but
		// wfq, whose fair pick reorders by design), labels must only add
		// the per-tenant roll-up — the untenanted shadow of the trace
		// reproduces the rest of the summary byte-for-byte.
		if nTenants > 0 && policyKind%4 != 3 {
			urouter, err := ParseRouting(routerNames[int(routing)%len(routerNames)], seed)
			if err != nil {
				t.Fatal(err)
			}
			uspec := spec
			uspec.Trace = trace.Untenanted()
			uspec.Router = urouter
			ures, err := SimulateFleet(uspec, gpusim.VegaFE())
			if err != nil {
				t.Fatalf("untenanted SimulateFleet: %v", err)
			}
			tsum := sum
			tsum.PerTenant = nil
			want, _ := ures.Summary().Serialize()
			got, _ := tsum.Serialize()
			if !bytes.Equal(got, want) {
				t.Fatalf("tenant labels changed the summary beyond the per-tenant block:\n%s\nvs\n%s", got, want)
			}
		}

		// Runner: the spec run on a runner that has just run a different
		// spec (a longer trace at another rate with the tenants flipped,
		// another fleet shape and queue bound, and, on odd seeds, the KV
		// model flipped) serializes the same summary.
		var rn Runner
		other := spec
		other.Trace = trace.Untenanted()
		if tr, err := PoissonTrace(corpus, 256, rate*2, seed+1); err == nil && tr.Validate() == nil {
			other.Trace = tr
		}
		if nTenants == 0 {
			for i := range other.Trace.Requests {
				other.Trace.Requests[i].Tenant = fmt.Sprintf("o%d", i%2)
			}
		}
		other.Router = NewRoundRobin()
		other.Autoscale, other.Replicas, other.QueueCap = nil, nReplicas%3+2, (cap+5)%8
		if seed&1 != 0 {
			if kv == nil {
				other.KV = &KVConfig{CapacityBytes: 100_000, DecodeSteps: 3, BytesPerToken: 1000}
			} else {
				other.KV = nil
			}
		}
		if _, err := rn.Run(other, gpusim.VegaFE()); err != nil {
			t.Fatalf("Runner.Run of the other spec: %v", err)
		}
		checkRunnerRun(t, &rn, spec, routerNames[int(routing)%len(routerNames)], seed, sum)

		// Early stop: each rule's verdict is the full run's, and the same
		// runner, stopped or not, reports the same summary.
		for _, rule := range stopRules(sum) {
			srouter, err := ParseRouting(routerNames[int(routing)%len(routerNames)], seed)
			if err != nil {
				t.Fatal(err)
			}
			sspec := spec
			sspec.Router = srouter
			sspec.Stop = &rule
			sres, err := SimulateFleet(sspec, gpusim.VegaFE())
			if err != nil {
				t.Fatalf("SimulateFleet with %+v: %v", rule, err)
			}
			checkStoppedRun(t, rule, res, sres)
			checkRunnerRun(t, &rn, sspec, routerNames[int(routing)%len(routerNames)], seed, sres.Summary())
		}

		// Generalization: the 1-replica unbounded round-robin fleet is
		// the single-queue simulator, as the standalone reference loop
		// implements it.
		if nReplicas == 1 && cap == 0 && spec.Autoscale == nil && router.Name() == RoutingRoundRobin {
			single, err := referenceSimulate(Spec{
				Model: spec.Model, Trace: trace, Policy: policy, Profiles: &stubSource{}, KV: kv,
			}, gpusim.VegaFE())
			if err != nil {
				t.Fatalf("referenceSimulate: %v", err)
			}
			sameRun(t, single, res)
		}
	})
}

// stopRules draws stop rules from a full run's own summary: caps at
// its p99 and drop rate (met), one step below them (missed by the
// fewest requests possible), and well below them (missed early), alone
// and together. A run that served nothing gets no latency cap, since 0
// sets none.
func stopRules(full FleetSummary) []StopRule {
	var rules []StopRule
	drops := []float64{full.DropRatePct, math.Nextafter(full.DropRatePct, -1), full.DropRatePct / 2}
	for i := range drops {
		if drops[i] >= 0 {
			rules = append(rules, StopRule{MaxDropRatePct: &drops[i]})
		}
	}
	if full.Served == 0 {
		return rules
	}
	for _, p99 := range []float64{full.P99LatencyUS, math.Nextafter(full.P99LatencyUS, 0), full.P50LatencyUS / 2} {
		if p99 > 0 {
			rules = append(rules, StopRule{P99LatencyUS: p99})
			rules = append(rules, StopRule{P99LatencyUS: p99, MaxDropRatePct: &drops[0]})
		}
	}
	return rules
}

// meetsStopRule reports whether a summary meets the rule's caps, as the
// planner checks them: a latency cap needs something served.
func meetsStopRule(s FleetSummary, rule StopRule) bool {
	if rule.P99LatencyUS > 0 && (s.Served == 0 || s.P99LatencyUS > rule.P99LatencyUS) {
		return false
	}
	return rule.MaxDropRatePct == nil || s.DropRatePct <= *rule.MaxDropRatePct
}

// checkStoppedRun holds a run under a stop rule to the full run: it
// misses the rule exactly when the full run does; if it stopped, each
// request it resolved was resolved the same way in the full run, and it
// resolved fewer; if not, it is the full run, summary bytes included.
func checkStoppedRun(t *testing.T, rule StopRule, full, stopped *FleetResult) {
	t.Helper()
	fullSum, stoppedSum := full.Summary(), stopped.Summary()
	if got, want := meetsStopRule(stoppedSum, rule), meetsStopRule(fullSum, rule); got != want {
		t.Fatalf("rule %+v: run with the rule meets it = %v (stopped %v), full run = %v",
			rule, got, stopped.Stopped, want)
	}
	if !stopped.Stopped {
		sameRun(t, (*Result)(full), stopped)
		got, _ := stoppedSum.Serialize()
		want, _ := fullSum.Serialize()
		if !bytes.Equal(got, want) {
			t.Fatalf("rule %+v did not stop the run but changed its summary:\n%s\nvs\n%s", rule, got, want)
		}
		return
	}
	if len(stopped.Requests)+len(stopped.Rejections) >= len(full.Requests)+len(full.Rejections) {
		t.Fatalf("rule %+v: stopped run resolved %d+%d requests, the full run %d+%d", rule,
			len(stopped.Requests), len(stopped.Rejections), len(full.Requests), len(full.Rejections))
	}
	servedAt := make(map[int]RequestMetric, len(full.Requests))
	for _, m := range full.Requests {
		servedAt[m.ID] = m
	}
	for _, m := range stopped.Requests {
		if servedAt[m.ID] != m {
			t.Fatalf("rule %+v: stopped run served request %d as %+v, the full run as %+v", rule, m.ID, m, servedAt[m.ID])
		}
	}
	rejected := make(map[Rejection]bool, len(full.Rejections))
	for _, r := range full.Rejections {
		rejected[r] = true
	}
	for _, r := range stopped.Rejections {
		if !rejected[r] {
			t.Fatalf("rule %+v: stopped run rejected %+v, the full run did not", rule, r)
		}
	}
}

// checkRunnerRun runs spec on rn under a fresh router of the given
// name and requires want, the summary of the same spec's SimulateFleet
// run, byte for byte and in its stop flag.
func checkRunnerRun(t *testing.T, rn *Runner, spec FleetSpec, routing string, seed int64, want FleetSummary) {
	t.Helper()
	router, err := ParseRouting(routing, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.Router = router
	got, err := rn.Run(spec, gpusim.VegaFE())
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	gb, _ := got.Serialize()
	wb, _ := want.Serialize()
	if !bytes.Equal(gb, wb) || got.Stopped != want.Stopped {
		t.Fatalf("runner summary (stopped %v)\n%s\nSimulateFleet's (stopped %v)\n%s", got.Stopped, gb, want.Stopped, wb)
	}
}

// fuzzLengths derives a small deterministic SL pool from the fuzz seed
// so traces vary without unseeded randomness.
func fuzzLengths(seed int64) []int {
	if seed < 0 {
		seed = -seed
	}
	lengths := make([]int, 32)
	for i := range lengths {
		lengths[i] = 1 + int((seed+int64(i)*7)%61)
	}
	return lengths
}

// views rebuilds the router's snapshot of the fleet from the replicas'
// state, as the event loop did before it kept one, and counts the
// eligible replicas.
func (f *fleetRun) views() ([]ReplicaView, int) {
	views := make([]ReplicaView, len(f.replicas))
	eligible := 0
	for i, r := range f.replicas {
		views[i] = ReplicaView{
			ID:       i,
			Live:     r.live,
			Queued:   r.queue.size(),
			InFlight: len(r.inflight),
			HasRoom:  f.spec.QueueCap == 0 || r.queue.size() < f.spec.QueueCap,
		}
		if f.kv != nil {
			views[i].KVBytes = r.kvQueued + r.kvInflight
		}
		if views[i].eligible() {
			eligible++
		}
	}
	return views, eligible
}

// checkKeptViews requires the fleet's kept snapshot to equal a
// rebuild, KV bytes included when exactKV is set. An in-place KV sum
// within one arrival instant may round differently from a rebuild's;
// the fuzzer's KV bytes are whole multiples of 1,000, so its sums are
// exact and every decision compares them.
func checkKeptViews(t *testing.T, f *fleetRun, exactKV bool) {
	t.Helper()
	want, eligible := f.views()
	if f.eligible != eligible {
		t.Fatalf("clock %v, request %d: kept snapshot counts %d eligible replicas, a rebuild %d",
			f.clock, f.next-1, f.eligible, eligible)
	}
	for i, w := range want {
		got := f.snapshot[i]
		if !exactKV {
			got.KVBytes = w.KVBytes
		}
		if got != w {
			t.Fatalf("clock %v, request %d: kept view %+v, a rebuild %+v", f.clock, f.next-1, f.snapshot[i], w)
		}
	}
}
