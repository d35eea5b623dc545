package serving

import (
	"fmt"
	"slices"
	"sort"

	"seqpoint/internal/gpusim"
)

// Disaggregated serving: the fleet is split into a prefill pool
// (replicas 0..P-1) and a decode pool (P..P+D-1) joined by a handoff
// queue, the topology production inference stacks use to keep
// long-prefill requests from stalling decode token streams. The run
// composes two deterministic fleet stages:
//
//  1. The prefill pool serves the arrival trace with the spec's router
//     and admission bound, each request priced as its prefill only
//     (KV holds the input tokens).
//  2. Every prefill completion enters the handoff queue in completion
//     order — (prefill-done time, trace ID), the order a real handoff
//     would observe — and becomes an arrival to the decode pool,
//     which routes by least KV pressure (the resource decode contends
//     on), holds (input + generated) tokens of cache per request, and
//     prices pad-to-max decode waves. The handoff queue is unbounded:
//     admission control happened at the front door.
//
// Because each stage is itself byte-deterministic at any profiling
// parallelism, so is the composition; the merge below is pure
// bookkeeping in fixed (trace ID / replica ID) order.

// DisaggConfig splits a fleet into prefill and decode pools.
type DisaggConfig struct {
	// PrefillReplicas and DecodeReplicas size the two pools; their sum
	// must equal FleetSpec.Replicas.
	PrefillReplicas int
	DecodeReplicas  int
}

// Validate reports whether both pools are populated.
func (d DisaggConfig) Validate() error {
	if d.PrefillReplicas < 1 || d.DecodeReplicas < 1 {
		return fmt.Errorf("serving: disagg pools need at least one replica each, got prefill %d, decode %d",
			d.PrefillReplicas, d.DecodeReplicas)
	}
	return nil
}

// simulateDisagg runs the two-stage disaggregated topology. spec is
// already validated and has Disagg (and therefore KV) set.
func simulateDisagg(spec FleetSpec, hw gpusim.Config) (*FleetResult, error) {
	P, D := spec.Disagg.PrefillReplicas, spec.Disagg.DecodeReplicas

	pre := spec
	pre.Disagg = nil
	pre.Replicas = P
	kvPre := *spec.KV
	kvPre.phase = phasePrefill
	pre.KV = &kvPre
	preRes, err := SimulateFleet(pre, hw)
	if err != nil {
		return nil, err
	}

	// The handoff queue: prefill completions in (done time, trace ID)
	// order become the decode pool's arrival trace. The decode pool's
	// request i is served[hand[i]]; served is in trace-ID order, so a
	// stable sort by done time breaks ties by ID.
	served := preRes.Requests
	hand := make([]int, len(served))
	for i := range hand {
		hand[i] = i
	}
	sort.SliceStable(hand, func(i, j int) bool { return served[hand[i]].DoneUS < served[hand[j]].DoneUS })
	reqs := make([]Request, len(hand))
	for i, k := range hand {
		m := &served[k]
		reqs[i] = Request{
			ID:          i,
			ArrivalUS:   m.DoneUS,
			SeqLen:      m.SeqLen,
			DecodeSteps: spec.Trace.Requests[m.ID].DecodeSteps,
			Tenant:      m.Tenant,
		}
	}

	res := &FleetResult{
		Config:       hw,
		Routing:      spec.Router.Name(),
		Policy:       spec.Policy.Name(),
		Replicas:     P + D,
		QueueCap:     spec.QueueCap,
		Disagg:       fmt.Sprintf("prefill=%d,decode=%d", P, D),
		Batches:      preRes.Batches,
		BusyUS:       preRes.BusyUS,
		MakespanUS:   preRes.MakespanUS,
		PeakReplicas: P + D,
		Rejections:   preRes.Rejections,
	}

	var decRes *FleetResult
	if len(reqs) > 0 {
		dec := spec
		dec.Disagg = nil
		dec.Replicas = D
		dec.Trace = Trace{Name: spec.Trace.Name + "+handoff", Requests: reqs}
		dec.Router = NewKVRouter()
		dec.QueueCap = 0
		kvDec := *spec.KV
		kvDec.phase = phaseDecode
		dec.KV = &kvDec
		if decRes, err = SimulateFleet(dec, hw); err != nil {
			return nil, err
		}
		res.Batches += decRes.Batches
		res.BusyUS += decRes.BusyUS
		if decRes.MakespanUS > res.MakespanUS {
			res.MakespanUS = decRes.MakespanUS
		}
	}

	// Merge per-request metrics back under original trace IDs, in the
	// prefill record: each request keeps its prefill metric (queueing
	// and prefill timing, tenant) and takes its completion, and the
	// decode batch and replica it rode, from stage 2. FirstUS — the TTFT
	// instant — is the prefill completion, which is where the first
	// output token exists in this topology too.
	if decRes != nil {
		for _, dm := range decRes.Requests {
			m := &served[hand[dm.ID]]
			m.DoneUS, m.BatchSize, m.Replica = dm.DoneUS, dm.BatchSize, P+dm.Replica
		}
		// A request the decode pool refused (its full context can never
		// fit) surfaces as a kv_capacity rejection under its original
		// identity, and leaves the served metrics.
		for _, rej := range decRes.Rejections {
			m := &served[hand[rej.ID]]
			rej.ID, rej.ArrivalUS = m.ID, m.ArrivalUS
			res.Rejections = append(res.Rejections, rej)
			m.ID = -1
		}
		res.Requests = slices.DeleteFunc(served, func(m RequestMetric) bool { return m.ID < 0 })
		sort.Slice(res.Rejections, func(i, j int) bool { return res.Rejections[i].ID < res.Rejections[j].ID })
	}

	// Pool stats concatenate with decode replicas renumbered into the
	// global ID space.
	res.ReplicaStats = make([]ReplicaStats, 0, P+D)
	res.ReplicaStats = append(res.ReplicaStats, preRes.ReplicaStats...)
	res.ReplicaSeconds = preRes.ReplicaSeconds
	kvs := &KVRunStats{
		BytesPerToken: preRes.KV.BytesPerToken,
		CapacityBytes: preRes.KV.CapacityBytes,
		PeakBytes:     preRes.KV.PeakBytes,
		Preemptions:   preRes.KV.Preemptions,
	}
	if decRes != nil {
		for _, rs := range decRes.ReplicaStats {
			rs.Replica += P
			res.ReplicaStats = append(res.ReplicaStats, rs)
		}
		res.ReplicaSeconds += decRes.ReplicaSeconds
		kvs.Preemptions += decRes.KV.Preemptions
		if decRes.KV.PeakBytes > kvs.PeakBytes {
			kvs.PeakBytes = decRes.KV.PeakBytes
		}
	} else {
		// An all-rejected trace still allocated the decode pool; its
		// replicas idled for the whole (empty) run.
		for i := 0; i < D; i++ {
			res.ReplicaStats = append(res.ReplicaStats, ReplicaStats{Replica: P + i, GPUs: 1})
		}
	}
	res.KV = kvs
	return res, nil
}
