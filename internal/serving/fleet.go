package serving

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/stats"
	"seqpoint/internal/trainer"
)

// This file is the package's one serving event loop: N replicas, each
// batching its own queue under the shared policy, fronted by a routing
// policy, a bounded admission queue per replica, and an optional
// reactive autoscaler. Simulate (sim.go) is this loop with one
// round-robin replica and an unbounded queue, and the disaggregated
// topology (disagg.go) composes two runs of it.
//
// The event loop keeps what it can index instead of scanning the
// fleet: replica wake/finish times live in a min-heap (fleetheap.go),
// so finding the next event costs O(log R); policy re-consults wait
// in a dirty set; and the router's snapshot of the fleet is kept for
// the whole run and written through: each change to a replica's queue,
// batch, liveness or KV bytes rewrites that replica's view at once, so
// keeping it costs what changed, not R. Batch latencies come from a
// flat price table (pricetable.go), which is also the run's index of
// the trace's SLs. Replicas advance serially, in (time, replica ID)
// order. Three parts still cost O(R) per call: a bundled router's pick
// (every one but rr scans all views on each arrival), the autoscaler's
// depth count at each event, and the flush of partial batches once the
// trace is drained.

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
	// Stop ends the run at the first event instant after which its
	// summary is certain to miss one of the rule's caps, for callers
	// that read only that verdict; the result is then marked Stopped.
	// nil runs the whole trace, as does a run that meets the caps.
	// Disaggregated fleets refuse a rule.
	Stop *StopRule
}

// StopRule is a latency and drop-rate envelope a fleet run may stop at
// once it certainly misses it. Of a trace of n requests, the run stops
// when more than n - stats.NearestRank(n, 99) served requests took
// longer than P99LatencyUS, or when rejected/n*100 exceeds
// MaxDropRatePct. The summary of what the run resolved by then, and of
// the whole run, both fail the same cap: a smaller sample absorbs no
// more late requests above its p99 (n - NearestRank(n, 99) is
// floor(n/100), which never decreases), and a drop rate over fewer
// requests is no lower. A run that meets the envelope never stops.
type StopRule struct {
	// P99LatencyUS caps the p99 end-to-end latency; 0 sets no cap.
	P99LatencyUS float64
	// MaxDropRatePct caps the drop rate in percent; nil sets no cap.
	MaxDropRatePct *float64
}

// validate rejects a cap no summary could be compared with.
func (r StopRule) validate() error {
	if v := r.P99LatencyUS; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("serving: stop rule p99 latency cap must be a finite non-negative duration, got %v", v)
	}
	if d := r.MaxDropRatePct; d != nil && (*d < 0 || *d > 100 || math.IsNaN(*d)) {
		return fmt.Errorf("serving: stop rule drop cap must be in [0, 100], got %v", *d)
	}
	return nil
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
	if s.Stop != nil {
		if err := s.Stop.validate(); err != nil {
			return err
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
		case s.Stop != nil:
			return fmt.Errorf("serving: disaggregated fleets do not stop early")
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
	// Stopped reports that FleetSpec.Stop ended the run early. Requests
	// and Rejections then hold only what was resolved by the stop, the
	// batch counts only completed batches, and the busy time every
	// launched one.
	Stopped bool
}

// fleetReplica is one replica's mutable event-loop state.
type fleetReplica struct {
	id   int
	live bool

	// queue slides over an array the replica reuses for the whole run,
	// so a dispatch moves only its batch (see requestQueue, takeBatch).
	queue     requestQueue
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
// prefetches the trace's unique SLs at the policy's max batch. The run
// is a fresh Runner's, so the result owns its arrays.
func SimulateFleet(spec FleetSpec, hw gpusim.Config) (*FleetResult, error) {
	return new(Runner).simulate(spec, hw)
}

// Runner runs fleet specs one after another and returns each run's
// summary, which is SimulateFleet's byte for byte. Each run reuses the
// arrays the runs before it grew: the trace-indexed request metrics,
// the replicas with their queue, batch and KV buffers, and the
// summary's ranking scratch. It also keeps the price table when the
// next run has the same profile source, hardware, model, max batch and
// KV setting, and the table has a slot for every SL of its trace:
// prices are deterministic profile lookups, so a kept table changes
// only how often the source is asked. A caller that simulates many fleets of one
// workload, as a capacity plan's probes do, so pays for that state
// once. The zero value is ready to use. A Runner is not safe for
// concurrent use.
type Runner struct {
	served   []RequestMetric
	replicas []*fleetReplica
	xs       []float64

	prices *priceTable
}

// Run simulates spec on hw, as SimulateFleet does, and returns the
// run's summary, which shares no memory with the Runner. A
// disaggregated spec runs its two stages on fresh arrays.
func (rn *Runner) Run(spec FleetSpec, hw gpusim.Config) (FleetSummary, error) {
	res, err := rn.simulate(spec, hw)
	if err != nil {
		return FleetSummary{}, err
	}
	rn.xs = resize(rn.xs, len(res.Requests))
	return res.summary(rn.xs), nil
}

// simulate validates the spec and hardware and runs the spec.
func (rn *Runner) simulate(spec FleetSpec, hw gpusim.Config) (*FleetResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if spec.Disagg != nil {
		return simulateDisagg(spec, hw)
	}
	return rn.runFleet(spec, hw)
}

// runFleet runs the event loop over an aggregated (non-disaggregated)
// spec its caller has already validated, so Simulate can validate its
// trace once rather than again here. The request metrics, replicas and
// price table come from rn; the result's Requests alias rn's array
// until rn's next run.
func (rn *Runner) runFleet(spec FleetSpec, hw gpusim.Config) (*FleetResult, error) {
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

	prices, err := rn.priceTable(src, hw, spec.Model, maxBatch, spec.Trace.Requests, kv != nil)
	if err != nil {
		return nil, err
	}

	for len(rn.replicas) < allocated {
		rn.replicas = append(rn.replicas, new(fleetReplica))
	}
	replicas := rn.replicas[:allocated]
	for i, r := range replicas {
		// Every field starts over; only the arrays carry across runs.
		*r = fleetReplica{
			id:          i,
			live:        i < spec.Replicas,
			wakeAt:      math.Inf(1),
			queue:       requestQueue{buf: r.queue.buf},
			inflight:    r.inflight[:0],
			launchTimes: r.launchTimes[:0],
		}
	}
	rn.served = resize(rn.served, len(spec.Trace.Requests))

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
		snapshot:    make([]ReplicaView, allocated),
		served:      rn.served,
		lastScaleAt: math.Inf(-1),
	}
	for i := range replicas {
		f.setView(i)
	}
	if spec.Stop != nil {
		f.stop = newStopCheck(*spec.Stop, len(spec.Trace.Requests))
	}
	if err := f.run(); err != nil {
		return nil, err
	}
	return f.res, nil
}

// priceTable returns a table over the SLs of reqs: the one the last run
// built when it was built for the same source, hardware, model, max
// batch and KV setting and has a slot for every request's SL, else a
// new one. A profile source or model that cannot be compared without a
// panic gets a new table.
func (rn *Runner) priceTable(src trainer.ProfileSource, hw gpusim.Config, model models.Model,
	maxBatch int, reqs []Request, withDecode bool) (*priceTable, error) {
	if t := rn.prices; t != nil && safeToCompare(src) && safeToCompare(model) &&
		t.src == src && t.hw == hw && t.model == model && t.maxBatch == maxBatch &&
		(t.decode != nil) == withDecode && t.holds(reqs) {
		return t, nil
	}
	t, err := newPriceTable(src, hw, model, maxBatch, reqs, withDecode)
	if err != nil {
		return nil, err
	}
	rn.prices = t
	return t, nil
}

// safeToCompare reports whether v can be compared with == without a panic.
func safeToCompare(v any) bool { return reflect.ValueOf(v).Comparable() }

// resize returns s with length n, reusing its array when it is large
// enough; the elements' values are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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

	// snapshot is the router's view of the fleet, kept for the whole
	// run, and eligible counts its eligible views. Every change to a
	// replica's queue, batch, liveness or KV bytes rewrites its view at
	// once (setView; a routed arrival updates its view in place).
	snapshot []ReplicaView
	eligible int

	// pickScratch is the reused takeBatch index scratch.
	pickScratch []int

	served      []RequestMetric
	lastScaleAt float64

	// stop is the spec's stop rule compiled for this trace; nil without
	// one.
	stop *stopCheck
}

// stopCheck is a StopRule compiled for an n-request trace: a cap the
// rule leaves unset is +Inf, which nothing exceeds.
type stopCheck struct {
	lateUS    float64 // latency cap
	lateLimit int     // late completions the trace's p99 can absorb
	late      int     // served requests slower than lateUS so far
	dropPct   float64 // drop-rate cap
	n         float64 // trace length
}

func newStopCheck(rule StopRule, n int) *stopCheck {
	c := &stopCheck{lateUS: math.Inf(1), dropPct: math.Inf(1), n: float64(n)}
	if rule.P99LatencyUS > 0 {
		c.lateUS = rule.P99LatencyUS
		c.lateLimit = n - stats.NearestRank(n, 99)
	}
	if rule.MaxDropRatePct != nil {
		c.dropPct = *rule.MaxDropRatePct
	}
	return c
}

// missed reports whether the run is certain to miss a cap, given its
// rejections so far. The drop rate is the summary's formula over the
// whole trace.
func (c *stopCheck) missed(rejected int) bool {
	return c.late > c.lateLimit || float64(rejected)/c.n*100 > c.dropPct
}

func (f *fleetRun) run() error {
	trace := f.spec.Trace.Requests
	for f.done < len(trace) {
		if f.stop != nil && f.stop.missed(len(f.res.Rejections)) {
			f.res.Stopped = true
			break
		}
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
		} else if r.queue.size() > 0 {
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
		if !r.live || r.busy || r.queue.size() == 0 {
			continue
		}
		for r.needConsult || f.clock >= r.wakeAt {
			d := f.spec.Policy.Decide(r.queue.reqs(), f.clock, nextArrival)
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
					f.res.Policy, r.id, r.queue.size(), f.clock)
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
			r.queue.prepend(batch[plan.keep:])
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
	f.setView(r.id)
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
	// Each metric is written field by field in place, every field, since
	// a Runner's buffer holds an earlier run's metrics.
	waves := 1
	if f.kv == nil {
		for i := range r.inflight {
			q := &r.inflight[i]
			m := &f.served[q.ID]
			m.ID, m.SeqLen, m.ArrivalUS = q.ID, q.SeqLen, q.ArrivalUS
			m.StartUS, m.FirstUS, m.DoneUS = r.startedAt, 0, r.doneAt
			m.BatchSize, m.PaddedSL, m.Replica, m.Tenant = len(r.inflight), r.paddedSL, r.id, q.Tenant
		}
	} else {
		for i := range r.inflight {
			q, t := &r.inflight[i], &r.launchTimes[i]
			m := &f.served[q.ID]
			m.ID, m.SeqLen, m.ArrivalUS = q.ID, q.SeqLen, q.ArrivalUS
			m.StartUS, m.FirstUS, m.DoneUS = r.startedAt+t.startOff, r.startedAt+t.firstOff, r.startedAt+t.doneOff
			m.BatchSize, m.PaddedSL, m.Replica, m.Tenant = t.batch, t.paddedSL, r.id, q.Tenant
		}
		waves = r.launchWaves
		r.kvInflight = 0
	}
	if f.stop != nil {
		for i := range r.inflight {
			if f.served[r.inflight[i].ID].latency() > f.stop.lateUS {
				f.stop.late++
			}
		}
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
	f.setView(r.id)
	r.needConsult = r.queue.size() > 0
	if r.needConsult {
		f.markDirty(r.id)
	}
}

// routeArrivals admits every arrival at or before the clock, in trace
// order: the router picks among live replicas with queue room; when
// none has room the request is rejected. Under the KV model a request
// whose own cache footprint exceeds the capacity is rejected outright
// (no replica could ever serve it), and a router that returns an
// ineligible replica fails the run with ErrBadRoute. Each arrival
// updates its replica's view in place.
//
// While the fleet is quiet until the next arrival, the pass advances
// the clock and routes it too: the event loop would otherwise make a
// round trip that changes nothing but the clock.
func (f *fleetRun) routeArrivals() error {
	trace := f.spec.Trace.Requests
	for f.next < len(trace) {
		req := trace[f.next]
		if req.ArrivalUS > f.clock {
			if !f.quietUntil(req.ArrivalUS) {
				break
			}
			f.clock = req.ArrivalUS
		}
		f.next++
		var need float64
		if f.kv != nil {
			if need = f.kv.peakBytes(req); need > f.kv.capacity {
				f.res.Rejections = append(f.res.Rejections, Rejection{
					ID: req.ID, ArrivalUS: req.ArrivalUS, SeqLen: req.SeqLen, Reason: RejectReasonKVCapacity, Tenant: req.Tenant,
				})
				f.done++
				continue
			}
		}
		if routeHook != nil {
			routeHook(f)
		}
		if f.eligible == 0 {
			f.res.Rejections = append(f.res.Rejections, Rejection{
				ID: req.ID, ArrivalUS: req.ArrivalUS, SeqLen: req.SeqLen, Reason: RejectReasonQueueFull, Tenant: req.Tenant,
			})
			f.done++
			continue
		}
		id := f.spec.Router.Route(req, f.snapshot)
		if id < 0 || id >= len(f.replicas) || !f.snapshot[id].eligible() {
			return fmt.Errorf("%w: router %q picked replica %d for request %d at %v with %d eligible replicas",
				ErrBadRoute, f.spec.Router.Name(), id, req.ID, req.ArrivalUS, f.eligible)
		}
		r := f.replicas[id]
		r.queue.push(req)
		r.needConsult = true
		r.consults = 0
		f.markDirty(id)
		// Only the routed replica's queue and KV bytes changed. Its view
		// was eligible, so a full queue takes it out of the count.
		r.kvQueued += need
		v := &f.snapshot[id]
		v.Queued++
		v.KVBytes = r.kvQueued + r.kvInflight
		if f.spec.QueueCap != 0 && r.queue.size() >= f.spec.QueueCap {
			v.HasRoom = false
			f.eligible--
		}
	}
	if f.next == len(trace) {
		// Trace drained: policies waiting for more arrivals must be
		// re-consulted so partial batches flush.
		for _, r := range f.replicas {
			if r.live && !r.busy && r.queue.size() > 0 {
				r.needConsult = true
				f.markDirty(r.id)
			}
		}
	}
	return nil
}

// routeHook, when set, is called at every routing decision, before
// the router sees the snapshot. Tests hold the snapshot to a rebuild.
var routeHook func(f *fleetRun)

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
		if r := f.replicas[id]; r.live && !r.busy && r.queue.size() > 0 {
			return false
		}
	}
	return true
}

// setView rewrites replica id's view from its state and keeps the
// eligible count.
func (f *fleetRun) setView(id int) {
	r, v := f.replicas[id], &f.snapshot[id]
	if v.eligible() {
		f.eligible--
	}
	*v = ReplicaView{
		ID:       id,
		Live:     r.live,
		Queued:   r.queue.size(),
		InFlight: len(r.inflight),
		HasRoom:  f.spec.QueueCap == 0 || r.queue.size() < f.spec.QueueCap,
		KVBytes:  r.kvQueued + r.kvInflight,
	}
	if v.eligible() {
		f.eligible++
	}
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
			queued += r.queue.size()
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
				f.setView(r.id)
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
			if r.live && !r.busy && r.queue.size() == 0 {
				r.live = false
				r.liveUS += f.clock - r.liveSince
				f.setView(r.id)
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
// multi-million-entry slice. A run without rejections needs no pass. A
// stopped run also skips the requests it left queued or in flight,
// marked by a negative ID, and those it never routed.
func (f *fleetRun) finalize() {
	served := f.served
	if f.res.Stopped {
		for _, r := range f.replicas {
			for _, q := range r.queue.reqs() {
				served[q.ID].ID = -1
			}
			for _, q := range r.inflight {
				served[q.ID].ID = -1
			}
		}
		served = served[:f.next]
	}
	if rej := f.res.Rejections; len(rej) > 0 || f.res.Stopped {
		k := 0
		for id := range served {
			if len(rej) > 0 && rej[0].ID == id {
				rej = rej[1:]
				continue
			}
			if served[id].ID < 0 {
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
