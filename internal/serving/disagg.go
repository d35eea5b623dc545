package serving

import (
	"fmt"
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
	// order become the decode pool's arrival trace.
	hand := append([]RequestMetric(nil), preRes.Requests...)
	sort.Slice(hand, func(i, j int) bool {
		if hand[i].DoneUS != hand[j].DoneUS {
			return hand[i].DoneUS < hand[j].DoneUS
		}
		return hand[i].ID < hand[j].ID
	})
	orig := spec.Trace.Requests
	reqs := make([]Request, len(hand))
	for i, m := range hand {
		reqs[i] = Request{
			ID:          i,
			ArrivalUS:   m.DoneUS,
			SeqLen:      m.SeqLen,
			DecodeSteps: orig[m.ID].DecodeSteps,
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

	// Merge per-request metrics back under original trace IDs: queueing
	// and prefill timing from stage 1, completion (and the decode batch
	// it rode) from stage 2. FirstUS — the TTFT instant — is the
	// prefill completion, which is where the first output token exists
	// in this topology too.
	if decRes != nil {
		res.Requests = make([]RequestMetric, 0, len(decRes.Requests))
		byOrig := make([]RequestMetric, len(orig))
		taken := make([]bool, len(orig))
		for _, dm := range decRes.Requests {
			pm := hand[dm.ID]
			origID := pm.ID
			byOrig[origID] = RequestMetric{
				ID:        origID,
				SeqLen:    pm.SeqLen,
				ArrivalUS: pm.ArrivalUS,
				StartUS:   pm.StartUS,
				FirstUS:   pm.FirstUS,
				DoneUS:    dm.DoneUS,
				BatchSize: dm.BatchSize,
				PaddedSL:  pm.PaddedSL,
				Replica:   P + dm.Replica,
			}
			taken[origID] = true
		}
		for id, ok := range taken {
			if ok {
				res.Requests = append(res.Requests, byOrig[id])
			}
		}
		// A request the decode pool refused (its full context can never
		// fit) surfaces as a kv_capacity rejection under its original
		// identity.
		for _, rej := range decRes.Rejections {
			origID := hand[rej.ID].ID
			res.Rejections = append(res.Rejections, Rejection{
				ID: origID, ArrivalUS: orig[origID].ArrivalUS, SeqLen: rej.SeqLen, Reason: rej.Reason,
			})
		}
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
