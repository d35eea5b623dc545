package serving

import (
	"encoding/json"
	"fmt"
	"sort"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/trainer"
)

// Spec describes one online-serving simulation.
type Spec struct {
	// Model is the network being served.
	Model models.Model
	// Trace is the arrival process.
	Trace Trace
	// Policy is the batching policy.
	Policy Policy
	// KV enables the per-replica KV-cache capacity model with
	// prefill/decode-split pricing; nil keeps the compute-only server,
	// byte-identical to the pre-KV simulator.
	KV *KVConfig
	// Profiles overrides the profile source; nil uses the process
	// default (the shared engine when internal/engine is linked).
	Profiles trainer.ProfileSource
}

// RequestMetric is one request's realized timeline.
type RequestMetric struct {
	// ID is the request's trace index.
	ID int `json:"id"`
	// SeqLen is the request's own sequence length.
	SeqLen int `json:"seqlen"`
	// ArrivalUS, StartUS and DoneUS are the arrival, batch-launch and
	// completion times.
	ArrivalUS float64 `json:"arrival_us"`
	StartUS   float64 `json:"start_us"`
	DoneUS    float64 `json:"done_us"`
	// FirstUS is the first-token instant (prefill completion) under the
	// KV model's prefill/decode split; 0 when KV is disabled, where the
	// phases are not separable.
	FirstUS float64 `json:"first_us,omitempty"`
	// BatchSize is the size of the batch that served the request;
	// PaddedSL the batch's padded sequence length (its longest member).
	BatchSize int `json:"batch"`
	PaddedSL  int `json:"padded_sl"`
	// Replica is the fleet replica that served the request; always 0 in
	// single-queue (Simulate) runs.
	Replica int `json:"replica"`
	// Tenant is the request's tenant label; empty (and omitted) on
	// single-tenant traces, keeping their metrics byte-identical to the
	// pre-tenant format.
	Tenant string `json:"tenant,omitempty"`
}

// WaitUS is the request's queueing delay.
func (m RequestMetric) WaitUS() float64 { return m.wait() }

// LatencyUS is the request's end-to-end latency (queueing + service).
func (m RequestMetric) LatencyUS() float64 { return m.latency() }

// TTFTUS is the request's time to first token (arrival to prefill
// completion). Only meaningful under the KV model, which separates
// the phases; 0 otherwise.
func (m RequestMetric) TTFTUS() float64 { return m.ttft() }

// wait, latency and ttft are WaitUS, LatencyUS and TTFTUS for loops
// over a metric slice: called through a pointer they read the metric in
// place, where a value-receiver call copies all of it.
func (m *RequestMetric) wait() float64 { return m.StartUS - m.ArrivalUS }

func (m *RequestMetric) latency() float64 { return m.DoneUS - m.ArrivalUS }

func (m *RequestMetric) ttft() float64 {
	if m.FirstUS == 0 {
		return 0
	}
	return m.FirstUS - m.ArrivalUS
}

// Result is one serving simulation's full outcome: the 1-replica
// fleet run Simulate executes. Its own Summary method keeps the
// single-queue digest.
type Result FleetResult

// policyConsultSlack bounds policy consultations per dispatched batch
// beyond the ones legitimately needed to fill it (every wait-consult
// admits at most one arrival, so a batch of B can take B-1 consults to
// fill). A policy that keeps asking to wait past that is a bug, and
// the bound turns the would-be hang into an error.
const policyConsultSlack = 64

// Simulate runs the serving trace on hw: one server with an unbounded
// queue, which is the fleet event loop with a single round-robin
// replica, validated as that fleet. Per-batch latencies come from the
// profile source's eval (forward-only) profiles; the trace's unique
// SLs are prefetched at the policy's max batch size in one bulk
// ProfileSource call. Output is byte-identical at any profiling
// parallelism.
func Simulate(spec Spec, hw gpusim.Config) (*Result, error) {
	fs := FleetSpec{
		Model:    spec.Model,
		Trace:    spec.Trace,
		Policy:   spec.Policy,
		Router:   NewRoundRobin(),
		Replicas: 1,
		KV:       spec.KV,
		Profiles: spec.Profiles,
	}
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if spec.KV != nil {
		// A request whose own cache exceeds the capacity can never be
		// served; a fleet rejects it at admission, the single-queue
		// server has no admission controller and must refuse the trace.
		kv := newKVState(spec.KV, spec.Model)
		for _, r := range spec.Trace.Requests {
			if need := kv.peakBytes(r); need > kv.capacity {
				return nil, fmt.Errorf("%w: request %d needs %v KV bytes, above the %v-byte capacity",
					ErrKVCapacity, r.ID, need, kv.capacity)
			}
		}
	}
	fr, err := new(Runner).runFleet(fs, hw)
	if err != nil {
		return nil, err
	}
	return (*Result)(fr), nil
}

// requestQueue is a replica's admission queue, oldest first: the
// window buf[head:tail] over a backing array the queue owns and reuses
// for the whole run (len(buf) == cap(buf)). takeBatch slides the head
// past each batch, so a FIFO take moves no request. push and prepend
// make room only when the array has none at that end: they move the
// live window within the array when enough of it is free, and
// otherwise double the array.
type requestQueue struct {
	buf        []Request
	head, tail int
}

// reqs is the live window, oldest first — the queue a policy decides on.
// It aliases the backing array and is only valid until the next push,
// prepend or take.
func (q *requestQueue) reqs() []Request { return q.buf[q.head:q.tail] }

// size is the number of queued requests.
func (q *requestQueue) size() int { return q.tail - q.head }

// push enqueues r at the tail.
func (q *requestQueue) push(r Request) {
	if q.tail == len(q.buf) {
		q.relocate(0, 1)
	}
	q.buf[q.tail] = r
	q.tail++
}

// prepend puts reqs in front of the queue, both orders kept — how
// evicted requests rejoin the line ahead of later arrivals, so
// recomputation cannot starve them. After a take there is room before
// the head for the batch it took, so an eviction from that batch costs
// O(evicted). reqs must not alias the queue's array.
func (q *requestQueue) prepend(reqs []Request) {
	if q.head < len(reqs) {
		q.relocate(len(reqs), 0)
	}
	q.head -= len(reqs)
	copy(q.buf[q.head:], reqs)
}

// relocate moves the live window to buf[front:], leaving at least
// front free slots before it and back after it. It reuses the array
// when the free slots cover both and are at least a quarter of the
// live count, so the O(live) move is paid for by that many cheap
// operations. Otherwise it doubles the array's own capacity (not the
// window's, which is smaller once the head has slid), rounded up to
// the allocator's size class as append rounds: append's own rule
// grows large arrays by about a quarter a step, so a deep backlog
// would reallocate, and copy, several times per doubling.
func (q *requestQueue) relocate(front, back int) {
	live := q.size()
	free := len(q.buf) - live
	buf := q.buf
	if free < front+back || free < live/4 {
		buf = append([]Request(nil), make([]Request, max(2*len(q.buf), live+front+back))...)
		buf = buf[:cap(buf)]
	}
	copy(buf[front:], q.buf[q.head:q.tail])
	q.buf, q.head, q.tail = buf, front, front+live
}

// takeBatch removes the picked indices from the queue and appends the
// picked requests to dst in queue order, validating the policy's pick.
// scratch is a reusable index buffer (the sorted copy of pick); both
// dst and the possibly-grown scratch are returned so callers can
// recycle them across dispatches. The unpicked requests in front of the
// last pick shift rightwards over the picked slots, and the queue's
// head moves len(pick) later: a dispatch costs O(batch + the last
// pick's index), which a FIFO prefix makes O(batch) and a selective
// pick bounds by its window, whatever the backlog.
func takeBatch(dst []Request, queue *requestQueue, pick []int, scratch []int, maxBatch int, policy string) ([]Request, []int, error) {
	q := queue.reqs()
	if len(pick) == 0 {
		return dst, scratch, fmt.Errorf("serving: policy %q dispatched an empty batch", policy)
	}
	if len(pick) > maxBatch {
		return dst, scratch, fmt.Errorf("serving: policy %q dispatched %d requests, above its max batch %d",
			policy, len(pick), maxBatch)
	}
	scratch = append(scratch[:0], pick...)
	sort.Ints(scratch)
	for i, idx := range scratch {
		if idx < 0 || idx >= len(q) {
			return dst, scratch, fmt.Errorf("serving: policy %q picked queue index %d of %d", policy, idx, len(q))
		}
		if i > 0 && idx == scratch[i-1] {
			return dst, scratch, fmt.Errorf("serving: policy %q picked queue index %d twice", policy, idx)
		}
		dst = append(dst, q[idx])
	}
	// Walk back from the last pick, moving each unpicked request to the
	// highest free slot; the picked slots end up the first len(pick).
	w, pi := scratch[len(scratch)-1], len(scratch)-1
	for i := w; i >= 0; i-- {
		if pi >= 0 && i == scratch[pi] {
			pi--
			continue
		}
		q[w] = q[i]
		w--
	}
	queue.head += len(pick)
	return dst, scratch, nil
}

// Summary is the deterministic, serialization-stable digest of a
// serving run: the roll-up the HTTP endpoint returns and the golden
// determinism tests byte-compare.
type Summary struct {
	Config         string  `json:"config"`
	Policy         string  `json:"policy"`
	Requests       int     `json:"requests"`
	Batches        int     `json:"batches"`
	MeanBatch      float64 `json:"mean_batch"`
	MakespanUS     float64 `json:"makespan_us"`
	BusyUS         float64 `json:"busy_us"`
	UtilizationPct float64 `json:"utilization_pct"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	MeanWaitUS     float64 `json:"mean_wait_us"`
	MeanLatencyUS  float64 `json:"mean_latency_us"`
	P50LatencyUS   float64 `json:"p50_latency_us"`
	P95LatencyUS   float64 `json:"p95_latency_us"`
	P99LatencyUS   float64 `json:"p99_latency_us"`

	// KV-model roll-ups, only emitted when the run had KV enabled
	// (omitempty keeps KV-off summaries byte-identical to the pre-KV
	// format). TTFT is arrival → prefill completion; the end-to-end
	// latency fields above keep their meaning.
	MeanTTFTUS      float64 `json:"mean_ttft_us,omitempty"`
	P50TTFTUS       float64 `json:"p50_ttft_us,omitempty"`
	P95TTFTUS       float64 `json:"p95_ttft_us,omitempty"`
	P99TTFTUS       float64 `json:"p99_ttft_us,omitempty"`
	Preemptions     int     `json:"preemptions,omitempty"`
	KVCapacityBytes float64 `json:"kv_capacity_bytes,omitempty"`
	KVPeakBytes     float64 `json:"kv_peak_bytes,omitempty"`

	// PerTenant rolls latency tails and drop rates up by tenant, sorted
	// by label; nil (and omitted) on single-tenant traces.
	PerTenant []TenantStats `json:"per_tenant,omitempty"`
}

// Summary digests the run: the fleet digest projected onto the
// single-queue fields. Simulate refuses a trace with an oversized KV
// request, so the run rejects nothing, and the loop ends on the last
// completion, so the replica's live time is the makespan.
func (r *Result) Summary() Summary {
	return (*FleetResult)(r).Summary().singleQueue()
}

// Serialize renders the summary as indented JSON with a trailing
// newline; the output is deterministic and byte-comparable, matching
// the trainer.RunSummary convention.
func (s Summary) Serialize() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
