package serving

import (
	"fmt"
	"math"
	"sort"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/trainer"
)

// This file is the package's one serving event loop: N replicas, each
// batching its own queue under the shared policy, fronted by a routing
// policy, a bounded admission queue per replica, and an optional
// reactive autoscaler. Simulate (sim.go) is this loop with one
// round-robin replica and an unbounded queue, and the disaggregated
// topology (disagg.go) composes two runs of it.
//
// The event loop is indexed, not scanned: replica wake/finish times
// live in a min-heap (fleetheap.go) and policy re-consults in a dirty
// set, so one event costs O(log R) instead of O(R). Batch latencies
// come from a flat price table (pricetable.go). Replicas advance
// serially, in (time, replica ID) order.

// MaxFleetReplicas bounds the modeled fleet size; beyond it the O(N)
// per-arrival routing scan stops being the simulation's cheap part.
const MaxFleetReplicas = 1024

// AutoscaleConfig is the reactive autoscaler: scale up when the mean
// queue depth per live replica exceeds UpDepth, down when it falls
// below DownDepth, at most one action per CooldownUS of simulated
// time. Scale-down only ever retires an idle replica with an empty
// queue, so no admitted request is abandoned.
type AutoscaleConfig struct {
	// Min and Max bound the live replica count.
	Min, Max int
	// UpDepth and DownDepth are mean-queued-per-live-replica
	// thresholds; UpDepth must exceed DownDepth so the scaler cannot
	// oscillate within one evaluation.
	UpDepth, DownDepth float64
	// CooldownUS is the minimum simulated time between scale actions.
	CooldownUS float64
}

// Validate reports whether the autoscaler configuration is usable.
func (a AutoscaleConfig) Validate() error {
	switch {
	case a.Min < 1:
		return fmt.Errorf("serving: autoscale min %d, want >= 1", a.Min)
	case a.Max < a.Min:
		return fmt.Errorf("serving: autoscale max %d below min %d", a.Max, a.Min)
	case a.Max > MaxFleetReplicas:
		return fmt.Errorf("serving: autoscale max %d exceeds the %d-replica limit", a.Max, MaxFleetReplicas)
	case math.IsNaN(a.UpDepth) || math.IsInf(a.UpDepth, 0) || a.UpDepth <= 0:
		return fmt.Errorf("serving: autoscale up-depth must be a positive finite depth, got %v", a.UpDepth)
	case math.IsNaN(a.DownDepth) || a.DownDepth < 0 || a.DownDepth >= a.UpDepth:
		return fmt.Errorf("serving: autoscale down-depth must be in [0, up-depth), got %v", a.DownDepth)
	case math.IsNaN(a.CooldownUS) || math.IsInf(a.CooldownUS, 0) || a.CooldownUS < 0:
		return fmt.Errorf("serving: autoscale cooldown must be a finite non-negative duration, got %v", a.CooldownUS)
	}
	return nil
}

// FleetSpec describes one multi-replica serving simulation.
type FleetSpec struct {
	// Model is the network every replica serves.
	Model models.Model
	// Trace is the arrival process offered to the fleet.
	Trace Trace
	// Policy is the per-replica batching policy (shared).
	Policy Policy
	// Router assigns each arrival to a replica.
	Router Router
	// Replicas is the replica count — with autoscaling, the initial
	// live count (within [Autoscale.Min, Autoscale.Max]).
	Replicas int
	// QueueCap bounds each replica's admission queue; arrivals finding
	// every live replica full are rejected. 0 means unbounded.
	QueueCap int
	// Autoscale enables the reactive autoscaler; nil keeps the fleet
	// size fixed at Replicas.
	Autoscale *AutoscaleConfig
	// KV enables the per-replica KV-cache capacity model with
	// prefill/decode-split pricing; nil keeps the compute-only fleet,
	// byte-identical to the pre-KV simulator.
	KV *KVConfig
	// Disagg splits the fleet into a prefill pool and a decode pool
	// joined by a handoff queue (requires KV); nil keeps the aggregated
	// topology where every replica runs both phases.
	Disagg *DisaggConfig
	// Parallelism must be non-negative and is otherwise ignored.
	//
	// Deprecated: ignored; fleets advance serially.
	Parallelism int
	// Profiles overrides the profile source; nil uses the process
	// default (the shared engine when internal/engine is linked).
	Profiles trainer.ProfileSource
}

// allocated is the number of replica slots the simulation provisions:
// the autoscaler's Max when autoscaling, Replicas otherwise.
func (s FleetSpec) allocated() int {
	if s.Autoscale != nil {
		return s.Autoscale.Max
	}
	return s.Replicas
}

// Validate reports whether the spec is complete and consistent.
func (s FleetSpec) Validate() error {
	switch {
	case s.Model == nil:
		return fmt.Errorf("serving: spec needs a model")
	case s.Policy == nil:
		return fmt.Errorf("serving: spec needs a batching policy")
	case s.Policy.MaxBatch() <= 0:
		return fmt.Errorf("serving: policy %q has non-positive max batch", s.Policy.Name())
	case s.Router == nil:
		return fmt.Errorf("serving: fleet spec needs a router")
	case s.Replicas < 1:
		return fmt.Errorf("serving: fleet needs at least one replica, got %d", s.Replicas)
	case s.Replicas > MaxFleetReplicas:
		return fmt.Errorf("serving: %d replicas exceeds the %d-replica limit", s.Replicas, MaxFleetReplicas)
	case s.QueueCap < 0:
		return fmt.Errorf("serving: queue capacity must be non-negative, got %d", s.QueueCap)
	case s.Parallelism < 0:
		return fmt.Errorf("serving: parallelism must be non-negative, got %d", s.Parallelism)
	}
	if s.Autoscale != nil {
		if err := s.Autoscale.Validate(); err != nil {
			return err
		}
		if s.Replicas < s.Autoscale.Min || s.Replicas > s.Autoscale.Max {
			return fmt.Errorf("serving: initial replicas %d outside autoscale bounds [%d, %d]",
				s.Replicas, s.Autoscale.Min, s.Autoscale.Max)
		}
	}
	if s.KV != nil {
		if err := s.KV.Validate(); err != nil {
			return err
		}
	} else if s.Router.Name() == RoutingKV {
		return fmt.Errorf("serving: %q routing needs the KV model enabled — without it every replica reports zero cache pressure", RoutingKV)
	}
	if s.Disagg != nil {
		if err := s.Disagg.Validate(); err != nil {
			return err
		}
		switch {
		case s.KV == nil:
			return fmt.Errorf("serving: a disaggregated fleet needs the KV model — the prefill/decode split is what the pools disaggregate")
		case s.Autoscale != nil:
			return fmt.Errorf("serving: disaggregated fleets do not autoscale")
		case s.Replicas != s.Disagg.PrefillReplicas+s.Disagg.DecodeReplicas:
			return fmt.Errorf("serving: %d replicas but disagg pools sum to %d (prefill %d + decode %d)",
				s.Replicas, s.Disagg.PrefillReplicas+s.Disagg.DecodeReplicas,
				s.Disagg.PrefillReplicas, s.Disagg.DecodeReplicas)
		}
	}
	return s.Trace.Validate()
}

// RejectReasonQueueFull is the only rejection the bundled admission
// controller produces: every live replica's bounded queue was full.
const RejectReasonQueueFull = "queue_full"

// Rejection records one request the fleet refused to admit.
type Rejection struct {
	// ID is the request's trace index.
	ID int `json:"id"`
	// ArrivalUS is when the request arrived.
	ArrivalUS float64 `json:"arrival_us"`
	// SeqLen is the request's sequence length.
	SeqLen int `json:"seqlen"`
	// Reason is the typed rejection cause (RejectReasonQueueFull).
	Reason string `json:"reason"`
	// Tenant is the request's tenant label; empty (and omitted) on
	// single-tenant traces.
	Tenant string `json:"tenant,omitempty"`
}

// ReplicaStats is one replica's share of a fleet run.
type ReplicaStats struct {
	// Replica is the replica's fleet index.
	Replica int `json:"replica"`
	// GPUs is the replica's width: always 1, since a replica is one
	// GPU. The field stays so the wire shape does not change.
	GPUs int `json:"gpus"`
	// Served and Batches count the requests and batches the replica
	// completed.
	Served  int `json:"served"`
	Batches int `json:"batches"`
	// BusyUS is the replica's summed batch execution time; LiveUS the
	// simulated time it spent active (equal to the run length on fixed
	// fleets).
	BusyUS float64 `json:"busy_us"`
	LiveUS float64 `json:"live_us"`
	// Preemptions and KVPeakBytes are the replica's share of the KV
	// model's activity; always 0 (and omitted) with KV disabled.
	Preemptions int     `json:"preemptions,omitempty"`
	KVPeakBytes float64 `json:"kv_peak_bytes,omitempty"`
}

// FleetResult is one fleet simulation's full outcome.
type FleetResult struct {
	// Config is the per-GPU hardware configuration.
	Config gpusim.Config
	// Routing and Policy name the router and batching policy.
	Routing string
	Policy  string
	// Replicas is the allocated replica count; QueueCap the admission
	// bound (0 = unbounded).
	Replicas int
	QueueCap int
	// Requests holds every served request's metric, ordered by trace
	// ID; rejected requests appear in Rejections instead.
	Requests []RequestMetric
	// Rejections lists refused requests in arrival order.
	Rejections []Rejection
	// ReplicaStats holds per-replica roll-ups, indexed by replica.
	ReplicaStats []ReplicaStats
	// Batches and BusyUS aggregate over replicas; MakespanUS is the
	// last batch completion.
	Batches    int
	BusyUS     float64
	MakespanUS float64
	// ReplicaSeconds integrates live replicas over simulated time: the
	// fleet's cost proxy (a fixed N-replica fleet accrues N × run
	// length / 1e6).
	ReplicaSeconds float64
	// ScaleUps, ScaleDowns and PeakReplicas summarize autoscaler
	// activity (0/0/Replicas on fixed fleets... PeakReplicas is the
	// maximum simultaneously live count).
	ScaleUps     int
	ScaleDowns   int
	PeakReplicas int
	// KV is the cache model's roll-up; nil when FleetSpec.KV was nil.
	KV *KVRunStats
	// Disagg labels a disaggregated run's topology
	// ("prefill=P,decode=D"); empty on aggregated fleets.
	Disagg string
}

// fleetReplica is one replica's mutable event-loop state.
type fleetReplica struct {
	id   int
	live bool

	queue     []Request
	busy      bool
	startedAt float64
	doneAt    float64
	inflight  []Request // reused batch buffer; len 0 when idle
	paddedSL  int

	// wakeAt is the policy's requested re-consult deadline (+Inf when
	// it only wants arrival/completion wake-ups); needConsult forces a
	// consult at the next dispatch pass regardless of the deadline.
	wakeAt      float64
	needConsult bool
	// consults counts policy consultations since the replica last
	// dispatched or grew its queue, bounding runaway wait loops.
	consults int

	// KV-model state, all replica-local (zero with KV off):
	// launchTimes/launchWaves describe the in-flight busy period,
	// kvQueued/kvInflight the router-visible cache pressure, and
	// preempts/kvPeak the per-replica roll-ups summed at finalize.
	launchTimes []kvReqTime
	launchWaves int
	kvQueued    float64
	kvInflight  float64
	kvPeak      float64
	preempts    int

	served, batches int
	busyUS          float64
	liveUS          float64
	liveSince       float64
}

// SimulateFleet runs the arrival trace against a fleet of replicas.
// The event loop is fully deterministic: replica events pop from the
// heap in (time, replica ID) order, arrivals are routed in trace
// order, and the only randomness (po2 routing) is seeded. Profiling
// parallelism changes how fast the answer is computed, never an output
// byte. Every replica is one GPU, so one bulk ProfileSource call
// prefetches the trace's unique SLs at the policy's max batch.
func SimulateFleet(spec FleetSpec, hw gpusim.Config) (*FleetResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if spec.Disagg != nil {
		return simulateDisagg(spec, hw)
	}
	return runFleet(spec, hw)
}

// runFleet runs the event loop over an aggregated (non-disaggregated)
// spec its caller has already validated, so Simulate can validate its
// trace once rather than again here.
func runFleet(spec FleetSpec, hw gpusim.Config) (*FleetResult, error) {
	src := spec.Profiles
	if src == nil {
		src = trainer.DefaultProfileSource()
	}
	maxBatch := spec.Policy.MaxBatch()
	allocated := spec.allocated()
	var kv *kvState
	if spec.KV != nil {
		kv = newKVState(spec.KV, spec.Model)
	}

	replicas := make([]*fleetReplica, allocated)
	for i := range replicas {
		replicas[i] = &fleetReplica{id: i, live: i < spec.Replicas, wakeAt: math.Inf(1)}
	}

	prices, err := newPriceTable(src, hw, spec.Model, maxBatch, spec.Trace.UniqueSLs(), kv != nil)
	if err != nil {
		return nil, err
	}

	f := &fleetRun{
		spec:     spec,
		replicas: replicas,
		prices:   prices,
		maxBatch: maxBatch,
		kv:       kv,
		res: &FleetResult{
			Config:       hw,
			Routing:      spec.Router.Name(),
			Policy:       spec.Policy.Name(),
			Replicas:     allocated,
			QueueCap:     spec.QueueCap,
			PeakReplicas: spec.Replicas,
		},
		heap:        newReplicaHeap(allocated),
		inDirty:     make([]bool, allocated),
		viewScratch: make([]ReplicaView, allocated),
		served:      make([]RequestMetric, len(spec.Trace.Requests)),
		lastScaleAt: math.Inf(-1),
	}
	if err := f.run(); err != nil {
		return nil, err
	}
	return f.res, nil
}

// fleetRun is the in-progress event loop state.
type fleetRun struct {
	spec     FleetSpec
	replicas []*fleetReplica
	prices   *priceTable
	maxBatch int
	kv       *kvState // nil = KV model off (the pre-KV code path)
	res      *FleetResult

	clock float64
	next  int // next trace index to route
	done  int // served + rejected

	// heap indexes each replica's next self-generated event (batch
	// completion or armed wake deadline); dirty lists replicas owing a
	// policy consult, deduped by inDirty.
	heap      *replicaHeap
	dirty     []int
	inDirty   []bool
	busyCount int

	// viewScratch is the reused router-snapshot buffer, pickScratch the
	// reused takeBatch index scratch.
	viewScratch []ReplicaView
	pickScratch []int

	served      []RequestMetric
	lastScaleAt float64
}

func (f *fleetRun) run() error {
	trace := f.spec.Trace.Requests
	for f.done < len(trace) {
		if err := f.dispatchDirty(); err != nil {
			return err
		}
		t := f.nextArrivalUS()
		if m := f.heap.min(); m < t {
			t = m
		}
		if math.IsInf(t, 1) {
			// Unreachable for contract-abiding policies: queued work
			// always has a dispatch or wake path, and un-routed arrivals
			// are themselves events.
			return fmt.Errorf("serving: fleet stalled at %v with %d of %d requests unresolved",
				f.clock, len(trace)-f.done, len(trace))
		}
		f.clock = t
		f.drainDue()
		if err := f.routeArrivals(); err != nil {
			return err
		}
		f.autoscale()
	}
	// Retire live-time integrals at the end of the run.
	end := f.endTime()
	for _, r := range f.replicas {
		if r.live {
			r.liveUS += end - r.liveSince
		}
	}
	f.finalize()
	return nil
}

// endTime is the instant the run stops accruing replica-seconds: the
// later of the last batch completion and the last processed event.
func (f *fleetRun) endTime() float64 {
	if f.res.MakespanUS > f.clock {
		return f.res.MakespanUS
	}
	return f.clock
}

// nextArrivalUS is the next un-routed arrival's time (+Inf when the
// trace is drained) — the same horizon the single-queue loop hands its
// policy.
func (f *fleetRun) nextArrivalUS() float64 {
	if f.next < len(f.spec.Trace.Requests) {
		return f.spec.Trace.Requests[f.next].ArrivalUS
	}
	return math.Inf(1)
}

// markDirty queues replica id for a policy consult at the next
// dispatch pass.
func (f *fleetRun) markDirty(id int) {
	if !f.inDirty[id] {
		f.inDirty[id] = true
		f.dirty = append(f.dirty, id)
	}
}

// refreshKey re-indexes replica r's next self-generated event in the
// heap: its batch completion when busy, its armed wake deadline when
// idle with queued work, nothing otherwise.
func (f *fleetRun) refreshKey(r *fleetReplica) {
	key := math.Inf(1)
	if r.live {
		if r.busy {
			key = r.doneAt
		} else if len(r.queue) > 0 {
			key = r.wakeAt
		}
	}
	f.heap.update(r.id, key)
}

// dispatchDirty consults the batching policy for every dirty idle live
// replica with queued work, in replica-ID order — the indexed
// equivalent of scanning the whole fleet for due consults.
func (f *fleetRun) dispatchDirty() error {
	if len(f.dirty) == 0 {
		return nil
	}
	sort.Ints(f.dirty)
	nextArrival := f.nextArrivalUS()
	for _, id := range f.dirty {
		f.inDirty[id] = false
		r := f.replicas[id]
		if !r.live || r.busy || len(r.queue) == 0 {
			continue
		}
		for r.needConsult || f.clock >= r.wakeAt {
			d := f.spec.Policy.Decide(r.queue, f.clock, nextArrival)
			if d.Dispatch {
				if err := f.launch(r, d.Pick); err != nil {
					return err
				}
				break
			}
			r.needConsult = false
			wake := math.Min(d.WaitUntilUS, nextArrival)
			if math.IsInf(wake, 1) && f.busyCount == 0 {
				return fmt.Errorf("serving: policy %q refused to dispatch with no future event (replica %d, queue %d, clock %v)",
					f.res.Policy, r.id, len(r.queue), f.clock)
			}
			if !math.IsInf(d.WaitUntilUS, 1) && d.WaitUntilUS <= f.clock {
				return fmt.Errorf("serving: policy %q asked to wait until the past (%v at clock %v)",
					f.res.Policy, d.WaitUntilUS, f.clock)
			}
			r.wakeAt = d.WaitUntilUS
			if r.consults++; r.consults > f.maxBatch+policyConsultSlack {
				return fmt.Errorf("serving: policy %q consulted %d times on replica %d without dispatching",
					f.res.Policy, r.consults, r.id)
			}
			if f.clock < r.wakeAt {
				break // deadline armed; re-consult when it arrives
			}
		}
		f.refreshKey(r)
	}
	f.dirty = f.dirty[:0]
	return nil
}

// launch moves the policy's pick into r's in-flight batch at the
// current clock and prices its busy period — a single pad-to-max price
// on the compute-only path, a prefill/decode wave plan under the KV
// model (which may evict part of the pick back to the queue).
func (f *fleetRun) launch(r *fleetReplica, pick []int) error {
	// res.Policy is the name read once per run, so a user policy whose
	// Name formats a string does not allocate on every batch.
	batch, scratch, err := takeBatch(r.inflight, &r.queue, pick, f.pickScratch, f.maxBatch, f.res.Policy)
	f.pickScratch = scratch
	if err != nil {
		return err
	}
	r.inflight = batch
	var lat float64
	if f.kv == nil {
		paddedSL := 0
		for _, q := range batch {
			if q.SeqLen > paddedSL {
				paddedSL = q.SeqLen
			}
		}
		if lat, err = f.prices.latency(len(batch), paddedSL); err != nil {
			return err
		}
		r.paddedSL = paddedSL
	} else {
		plan, times, err := f.kv.plan(f.prices, batch, r.launchTimes)
		r.launchTimes = times
		if err != nil {
			return err
		}
		if plan.keep < len(batch) {
			// Eviction: the displaced suffix rejoins the queue front so
			// recomputation does not also mean starvation.
			r.queue = prependRequests(r.queue, batch[plan.keep:])
			r.inflight = batch[:plan.keep]
		}
		lat = plan.totalLat
		r.launchWaves = plan.waves
		r.preempts += plan.preempts
		if plan.peak > r.kvPeak {
			r.kvPeak = plan.peak
		}
		// The launched requests' cache moves from queued to in-flight
		// pressure; evicted ones stay counted in the queue.
		r.kvQueued -= plan.keptKV
		r.kvInflight = plan.keptKV
	}
	r.busy = true
	r.startedAt = f.clock
	r.doneAt = f.clock + lat
	// Accumulate the priced latency itself, in dispatch order — not
	// doneAt-startedAt, whose float rounding would break the byte-exact
	// equivalence with the single-queue reference loop.
	r.busyUS += lat
	f.res.BusyUS += lat
	f.busyCount++
	r.wakeAt = math.Inf(1)
	r.needConsult = false
	r.consults = 0
	return nil
}

// drainDue pops every replica event at or before the clock: batch
// completions retire immediately, reached wake deadlines become dirty
// consults. Equal-time events pop in replica-ID order.
func (f *fleetRun) drainDue() {
	for len(f.heap.heap) > 0 {
		id := f.heap.heap[0]
		if f.heap.keys[id] > f.clock {
			break
		}
		r := f.replicas[id]
		if r.busy {
			f.completeReplica(r)
			f.refreshKey(r)
		} else {
			// A reached wake deadline becomes a dirty consult; the
			// replica keeps its (now past) deadline until the consult
			// re-arms it, so drop the heap slot rather than re-keying.
			r.needConsult = true
			f.markDirty(id)
			f.heap.update(id, math.Inf(1))
		}
	}
}

// completeReplica retires r's in-flight batch at the clock, recording
// per-request metrics and counting the priced batches its busy period
// contained (capacity waves under the KV model, 1 otherwise).
func (f *fleetRun) completeReplica(r *fleetReplica) {
	waves := 1
	if f.kv == nil {
		for _, q := range r.inflight {
			f.served[q.ID] = RequestMetric{
				ID:        q.ID,
				SeqLen:    q.SeqLen,
				ArrivalUS: q.ArrivalUS,
				StartUS:   r.startedAt,
				DoneUS:    r.doneAt,
				BatchSize: len(r.inflight),
				PaddedSL:  r.paddedSL,
				Replica:   r.id,
				Tenant:    q.Tenant,
			}
		}
	} else {
		for i, q := range r.inflight {
			t := r.launchTimes[i]
			f.served[q.ID] = RequestMetric{
				ID:        q.ID,
				SeqLen:    q.SeqLen,
				ArrivalUS: q.ArrivalUS,
				StartUS:   r.startedAt + t.startOff,
				FirstUS:   r.startedAt + t.firstOff,
				DoneUS:    r.startedAt + t.doneOff,
				BatchSize: t.batch,
				PaddedSL:  t.paddedSL,
				Replica:   r.id,
				Tenant:    q.Tenant,
			}
		}
		waves = r.launchWaves
		r.kvInflight = 0
	}
	n := len(r.inflight)
	r.served += n
	r.batches += waves
	r.busy = false
	r.inflight = r.inflight[:0]
	f.done += n
	f.res.Batches += waves
	if r.doneAt > f.res.MakespanUS {
		f.res.MakespanUS = r.doneAt
	}
	f.busyCount--
	r.needConsult = len(r.queue) > 0
	if r.needConsult {
		f.markDirty(r.id)
	}
}

// routeArrivals admits every arrival at or before the clock, in trace
// order: the router picks among live replicas with queue room; when
// none has room the request is rejected. Under the KV model a request
// whose own cache footprint exceeds the capacity is rejected outright
// (no replica could ever serve it), and a router that returns an
// ineligible replica fails the run with ErrBadRoute. The fleet
// snapshot is built in the reused scratch buffer and updated in place
// as arrivals land.
//
// While the fleet is quiet until the next arrival, the pass advances
// the clock and routes it too: the event loop would otherwise make a
// round trip that changes nothing but the clock. Only queues change in
// a quiet stretch, so the in-place snapshot stays exact — except for
// KV bytes, whose in-place float sum can round differently from a
// rebuild's, so with the KV model each arrival instant rebuilds it.
func (f *fleetRun) routeArrivals() error {
	trace := f.spec.Trace.Requests
	var (
		views    []ReplicaView
		eligible int
	)
	for f.next < len(trace) {
		req := trace[f.next]
		if req.ArrivalUS > f.clock {
			if !f.quietUntil(req.ArrivalUS) {
				break
			}
			f.clock = req.ArrivalUS
			if f.kv != nil {
				views = nil
			}
		}
		f.next++
		if f.kv != nil && f.kv.peakBytes(req) > f.kv.capacity {
			f.res.Rejections = append(f.res.Rejections, Rejection{
				ID: req.ID, ArrivalUS: req.ArrivalUS, SeqLen: req.SeqLen, Reason: RejectReasonKVCapacity, Tenant: req.Tenant,
			})
			f.done++
			continue
		}
		if views == nil {
			views, eligible = f.views()
		}
		if eligible == 0 {
			f.res.Rejections = append(f.res.Rejections, Rejection{
				ID: req.ID, ArrivalUS: req.ArrivalUS, SeqLen: req.SeqLen, Reason: RejectReasonQueueFull, Tenant: req.Tenant,
			})
			f.done++
			continue
		}
		id := f.spec.Router.Route(req, views)
		if id < 0 || id >= len(f.replicas) || !views[id].eligible() {
			return fmt.Errorf("%w: router %q picked replica %d for request %d at %v with %d eligible replicas",
				ErrBadRoute, f.spec.Router.Name(), id, req.ID, req.ArrivalUS, eligible)
		}
		r := f.replicas[id]
		r.queue = append(r.queue, req)
		r.needConsult = true
		r.consults = 0
		f.markDirty(id)
		// Only the routed replica's view changed; update it in place.
		views[id].Queued++
		if f.kv != nil {
			need := f.kv.peakBytes(req)
			r.kvQueued += need
			views[id].KVBytes += need
		}
		if f.spec.QueueCap != 0 && len(r.queue) >= f.spec.QueueCap {
			if views[id].eligible() {
				eligible--
			}
			views[id].HasRoom = false
		}
	}
	if f.next == len(trace) {
		// Trace drained: policies waiting for more arrivals must be
		// re-consulted so partial batches flush.
		for _, r := range f.replicas {
			if r.live && !r.busy && len(r.queue) > 0 {
				r.needConsult = true
				f.markDirty(r.id)
			}
		}
	}
	return nil
}

// quietUntil reports whether the event loop would do nothing but route
// arrivals up to time t: no autoscaler evaluates (it runs at every
// event), no replica event is due at or before t, and every replica
// owing a consult is busy, retired or empty, so the consult would be
// skipped.
func (f *fleetRun) quietUntil(t float64) bool {
	if f.spec.Autoscale != nil || f.heap.min() <= t {
		return false
	}
	for _, id := range f.dirty {
		if r := f.replicas[id]; r.live && !r.busy && len(r.queue) > 0 {
			return false
		}
	}
	return true
}

// views snapshots the fleet for the router into the reused scratch
// buffer and counts eligible replicas. The returned slice is only
// valid until the next call.
func (f *fleetRun) views() ([]ReplicaView, int) {
	views := f.viewScratch
	eligible := 0
	for i, r := range f.replicas {
		views[i] = ReplicaView{
			ID:       i,
			Live:     r.live,
			Queued:   len(r.queue),
			InFlight: len(r.inflight),
			HasRoom:  f.spec.QueueCap == 0 || len(r.queue) < f.spec.QueueCap,
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

// autoscale evaluates the reactive scaler at the current event: at
// most one action per evaluation, gated by the cooldown.
func (f *fleetRun) autoscale() {
	cfg := f.spec.Autoscale
	if cfg == nil || f.clock-f.lastScaleAt < cfg.CooldownUS {
		return
	}
	live, queued := 0, 0
	for _, r := range f.replicas {
		if r.live {
			live++
			queued += len(r.queue)
		}
	}
	depth := float64(queued) / float64(live)
	switch {
	case depth > cfg.UpDepth && live < cfg.Max:
		// Activate the lowest-index dormant replica.
		for _, r := range f.replicas {
			if !r.live {
				r.live = true
				r.liveSince = f.clock
				f.res.ScaleUps++
				f.lastScaleAt = f.clock
				if live+1 > f.res.PeakReplicas {
					f.res.PeakReplicas = live + 1
				}
				return
			}
		}
	case depth < cfg.DownDepth && live > cfg.Min:
		// Retire the highest-index live replica that is idle with an
		// empty queue; if none qualifies, skip this evaluation.
		for i := len(f.replicas) - 1; i >= 0; i-- {
			r := f.replicas[i]
			if r.live && !r.busy && len(r.queue) == 0 {
				r.live = false
				r.liveUS += f.clock - r.liveSince
				f.res.ScaleDowns++
				f.lastScaleAt = f.clock
				return
			}
		}
	}
}

// finalize compacts per-request metrics and per-replica stats into the
// result. Served metrics sit at their trace IDs, so the buffer is
// compacted in place by skipping the rejected IDs (Rejections is in
// trace order), and the result borrows it instead of copying a second
// multi-million-entry slice. A run without rejections needs no pass.
func (f *fleetRun) finalize() {
	served := f.served
	if rej := f.res.Rejections; len(rej) > 0 {
		k := 0
		for id := range served {
			if len(rej) > 0 && rej[0].ID == id {
				rej = rej[1:]
				continue
			}
			served[k] = served[id]
			k++
		}
		served = served[:k]
	}
	f.res.Requests = served
	f.res.ReplicaStats = make([]ReplicaStats, len(f.replicas))
	var replicaUS float64
	for i, r := range f.replicas {
		f.res.ReplicaStats[i] = ReplicaStats{
			Replica:     i,
			GPUs:        1,
			Served:      r.served,
			Batches:     r.batches,
			BusyUS:      r.busyUS,
			LiveUS:      r.liveUS,
			Preemptions: r.preempts,
			KVPeakBytes: r.kvPeak,
		}
		replicaUS += r.liveUS
	}
	f.res.ReplicaSeconds = replicaUS / 1e6
	if f.kv != nil {
		kvs := &KVRunStats{BytesPerToken: f.kv.bpt, CapacityBytes: f.kv.capacity}
		for _, r := range f.replicas {
			kvs.Preemptions += r.preempts
			if r.kvPeak > kvs.PeakBytes {
				kvs.PeakBytes = r.kvPeak
			}
		}
		f.res.KV = kvs
	}
}
