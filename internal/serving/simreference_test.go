package serving

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/trainer"
)

// sameRun fails the test unless the fleet run reproduces the reference
// run: its rejections (the reference loop never rejects), every
// request's timeline, then the batch count, busy time, makespan and KV
// roll-up. That is stricter than comparing summaries, which digest the
// timelines.
func sameRun(t *testing.T, ref *Result, fleet *FleetResult) {
	t.Helper()
	if !reflect.DeepEqual(fleet.Rejections, ref.Rejections) {
		t.Fatalf("fleet rejected %d requests, reference %d:\nfleet:     %+v\nreference: %+v",
			len(fleet.Rejections), len(ref.Rejections), fleet.Rejections, ref.Rejections)
	}
	if len(fleet.Requests) != len(ref.Requests) {
		t.Fatalf("fleet served %d requests, reference %d", len(fleet.Requests), len(ref.Requests))
	}
	for i := range ref.Requests {
		if fleet.Requests[i] != ref.Requests[i] {
			t.Fatalf("request %d diverged from the reference loop:\nfleet:     %+v\nreference: %+v",
				i, fleet.Requests[i], ref.Requests[i])
		}
	}
	if fleet.Batches != ref.Batches || fleet.BusyUS != ref.BusyUS || fleet.MakespanUS != ref.MakespanUS {
		t.Fatalf("fleet batches/busy/makespan %d/%v/%v, reference %d/%v/%v",
			fleet.Batches, fleet.BusyUS, fleet.MakespanUS, ref.Batches, ref.BusyUS, ref.MakespanUS)
	}
	if !reflect.DeepEqual(fleet.KV, ref.KV) {
		t.Fatalf("fleet KV roll-up %+v, reference %+v", fleet.KV, ref.KV)
	}
}

// referenceSimulate is a standalone single-queue event loop — one
// server, one queue, no heap, router or dirty set — that tests hold
// the fleet loop against: the single-replica equivalence test and the
// fuzz generalization block compare a 1-replica SimulateFleet with it,
// so the fleet is not only compared with Simulate, which wraps it. It
// shares the price table and the KV planner with the fleet, but none
// of the fleet's scheduling or queue code: its queue is a plain slice
// with its own removal (referenceTake) and prepend (prependRequests).
func referenceSimulate(spec Spec, hw gpusim.Config) (*Result, error) {
	fs := FleetSpec{Model: spec.Model, Trace: spec.Trace, Policy: spec.Policy, Router: NewRoundRobin(), Replicas: 1, KV: spec.KV}
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	src := spec.Profiles
	if src == nil {
		src = trainer.DefaultProfileSource()
	}
	maxBatch := spec.Policy.MaxBatch()

	// The KV model needs decode-step prices; a nil kv leaves the table
	// and the whole event loop on the pre-KV path, byte for byte.
	var kv *kvState
	if spec.KV != nil {
		kv = newKVState(spec.KV, spec.Model)
		// A request whose own cache exceeds the capacity can never be
		// served; a fleet rejects it at admission, the single-queue
		// server has no admission controller and must refuse the trace.
		for _, r := range spec.Trace.Requests {
			if need := kv.peakBytes(r); need > kv.capacity {
				return nil, fmt.Errorf("serving: request %d needs %v KV bytes, above the %v-byte capacity",
					r.ID, need, kv.capacity)
			}
		}
	}

	// The price table prefetches the trace's unique SLs at the max
	// batch size (every full batch's padded SL is one of the trace's
	// SLs) and prices each dispatch by integer offset; partial-batch
	// sizes fill their slots on first use.
	prices, err := newPriceTable(src, hw, spec.Model, maxBatch, spec.Trace.Requests, kv != nil)
	if err != nil {
		return nil, err
	}

	trace := spec.Trace.Requests
	res := &Result{
		Config:   hw,
		Policy:   spec.Policy.Name(),
		Requests: make([]RequestMetric, len(trace)),
	}
	if kv != nil {
		res.KV = &KVRunStats{BytesPerToken: kv.bpt, CapacityBytes: kv.capacity}
	}

	var (
		clock float64   // server-free time
		next  int       // next trace index to admit
		queue []Request // admitted, unserved requests, oldest first
		done  int       // completed requests

		batchBuf []Request   // reused batch buffer
		kvTimes  []kvReqTime // reused KV-plan timing scratch
	)
	admit := func() {
		for next < len(trace) && trace[next].ArrivalUS <= clock {
			queue = append(queue, trace[next])
			next++
		}
	}

	for done < len(trace) {
		if len(queue) == 0 {
			// Idle server: jump to the next arrival.
			if clock < trace[next].ArrivalUS {
				clock = trace[next].ArrivalUS
			}
			admit()
		}
		consults := 0
		for {
			nextArrival := math.Inf(1)
			if next < len(trace) {
				nextArrival = trace[next].ArrivalUS
			}
			d := spec.Policy.Decide(queue, clock, nextArrival)
			if d.Dispatch {
				batch, err := referenceTake(batchBuf[:0], &queue, d.Pick, maxBatch, spec.Policy.Name())
				batchBuf = batch
				if err != nil {
					return nil, err
				}
				start := clock
				if kv == nil {
					paddedSL := 0
					for _, r := range batch {
						if r.SeqLen > paddedSL {
							paddedSL = r.SeqLen
						}
					}
					lat, err := prices.latency(len(batch), paddedSL)
					if err != nil {
						return nil, err
					}
					clock += lat
					res.Batches++
					res.BusyUS += lat
					res.MakespanUS = clock
					for _, r := range batch {
						res.Requests[r.ID] = RequestMetric{
							ID:        r.ID,
							SeqLen:    r.SeqLen,
							ArrivalUS: r.ArrivalUS,
							StartUS:   start,
							DoneUS:    clock,
							BatchSize: len(batch),
							PaddedSL:  paddedSL,
							Tenant:    r.Tenant,
						}
						done++
					}
				} else {
					plan, times, err := kv.plan(prices, batch, kvTimes)
					kvTimes = times
					if err != nil {
						return nil, err
					}
					if plan.keep < len(batch) {
						// Eviction: the displaced suffix rejoins the queue
						// front so recomputation does not also mean
						// starvation.
						queue = prependRequests(queue, batch[plan.keep:])
					}
					clock += plan.totalLat
					res.Batches += plan.waves
					res.BusyUS += plan.totalLat
					res.MakespanUS = clock
					res.KV.Preemptions += plan.preempts
					if plan.peak > res.KV.PeakBytes {
						res.KV.PeakBytes = plan.peak
					}
					for i, r := range batch[:plan.keep] {
						t := times[i]
						res.Requests[r.ID] = RequestMetric{
							ID:        r.ID,
							SeqLen:    r.SeqLen,
							ArrivalUS: r.ArrivalUS,
							StartUS:   start + t.startOff,
							FirstUS:   start + t.firstOff,
							DoneUS:    start + t.doneOff,
							BatchSize: t.batch,
							PaddedSL:  t.paddedSL,
							Tenant:    r.Tenant,
						}
						done++
					}
				}
				admit()
				break
			}
			// The policy wants to wait: advance to the earlier of its
			// wake-up time and the next arrival.
			wake := math.Min(d.WaitUntilUS, nextArrival)
			if math.IsInf(wake, 1) || wake <= clock {
				return nil, fmt.Errorf("serving: policy %q refused to dispatch with no future event (queue %d, clock %v)",
					spec.Policy.Name(), len(queue), clock)
			}
			clock = wake
			admit()
			if consults++; consults > maxBatch+policyConsultSlack {
				return nil, fmt.Errorf("serving: policy %q consulted %d times without dispatching",
					spec.Policy.Name(), consults)
			}
		}
	}
	return res, nil
}

// referenceTake is the reference loop's batch removal on a plain-slice
// queue: validate the pick, append the picked requests to dst in queue
// order, then sweep the queue once, keeping the unpicked requests in
// order.
func referenceTake(dst []Request, queue *[]Request, pick []int, maxBatch int, policy string) ([]Request, error) {
	q := *queue
	if len(pick) == 0 {
		return dst, fmt.Errorf("serving: policy %q dispatched an empty batch", policy)
	}
	if len(pick) > maxBatch {
		return dst, fmt.Errorf("serving: policy %q dispatched %d requests, above its max batch %d",
			policy, len(pick), maxBatch)
	}
	sorted := append([]int(nil), pick...)
	sort.Ints(sorted)
	for i, idx := range sorted {
		if idx < 0 || idx >= len(q) {
			return dst, fmt.Errorf("serving: policy %q picked queue index %d of %d", policy, idx, len(q))
		}
		if i > 0 && idx == sorted[i-1] {
			return dst, fmt.Errorf("serving: policy %q picked queue index %d twice", policy, idx)
		}
		dst = append(dst, q[idx])
	}
	rest := q[:0]
	pi := 0
	for i, r := range q {
		if pi < len(sorted) && i == sorted[pi] {
			pi++
			continue
		}
		rest = append(rest, r)
	}
	*queue = rest
	return dst, nil
}

// prependRequests returns queue with reqs inserted at the front,
// preserving both orders: the reference loop's eviction. reqs must not
// alias queue's backing array.
func prependRequests(queue, reqs []Request) []Request {
	n, old := len(reqs), len(queue)
	queue = append(queue, reqs...)
	copy(queue[n:], queue[:old])
	copy(queue[:n], reqs)
	return queue
}
