// Package planner answers the inverse capacity question: given a
// workload and an SLO, what is the cheapest fleet that meets it? Where
// the experiments package sweeps grids forward (configuration →
// metrics) and leaves the knee to the reader, the planner searches
// backward (targets → configuration) over the deterministic fleet
// simulator and returns one minimal-cost plan with a saturation
// analysis attached.
//
// The planner never runs simulations itself. It searches through an
// injected Probe — one call evaluates one candidate fleet at one
// offered rate — so the same search drives the real profile-backed
// simulator (see experiments.PlanProbe), a facade-built closure, or an
// analytic model in tests. Feasibility is monotone in replica count
// for every queueing system the probe models (more replicas never hurt
// a fixed offered load), which is what licenses the binary search: the
// planner finds the minimal feasible replica count per (routing,
// policy, KV capacity) combination in O(log MaxReplicas) probes
// instead of MaxReplicas.
//
// Most probes are read only for their verdict — the knee probes, the
// bisection mid-points, and each ceiling probe once some combination is
// feasible — so Solve hands those candidates the SLO's latency and drop
// caps as a serving.StopRule, and a probe that passes it to the fleet
// simulator ends the run once the SLO is certainly missed.
//
// Determinism: Solve is a pure function of its Spec. Given a pure
// probe (the fleet simulator is, at any profiling parallelism), the
// same spec yields a byte-identical Plan, whether or not the probe
// stops verdict-only runs early — pinned by the committed golden in
// testdata/golden_plan.json.
package planner

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"seqpoint/internal/serving"
)

// ErrInfeasible reports that no candidate within the spec's bounds
// meets the SLO. Test with errors.Is; the wrapping error names the
// closest-to-feasible candidate and its first violated target.
var ErrInfeasible = errors.New("no candidate meets the SLO")

// Defaults for Spec fields left zero, applied by Solve.
const (
	// DefaultMaxReplicas bounds the replica search when the spec does
	// not; it matches the server's per-request fleet ceiling.
	DefaultMaxReplicas = 16
	// DefaultKneeFactorMax is the highest load multiple the knee
	// analysis probes: beyond 4× the planned rate, "where does it
	// break" stops being a capacity question.
	DefaultKneeFactorMax = 4.0
	// DefaultKneeIters is the bisection depth of the knee analysis;
	// ten iterations locate the knee to (FactorMax-1)/2^10 ≈ 0.3% of
	// the planned rate.
	DefaultKneeIters = 10
)

// SLO dimension names, as they appear in Plan.SLO and in wire specs.
const (
	DimTTFTP99       = "ttft_p99_us"
	DimLatencyP99    = "latency_p99_us"
	DimMinThroughput = "min_throughput_rps"
	DimMaxDropRate   = "max_drop_rate_pct"
)

// Saturation bottleneck names.
const (
	BottleneckCompute = "compute"
	BottleneckQueue   = "queue"
	BottleneckKVBytes = "kv_bytes"
)

// SLO is the target envelope a plan must meet. Zero-valued targets are
// untargeted; at least one must be set. All latencies are simulated
// microseconds.
type SLO struct {
	// TTFTP99US caps the p99 time-to-first-token. Only meaningful
	// under the KV capacity model (TTFT does not exist without the
	// prefill/decode split); probing a TTFT target against a KV-less
	// fleet is an error, not an infeasibility.
	TTFTP99US float64 `json:"ttft_p99_us,omitempty"`
	// LatencyP99US caps the p99 end-to-end request latency.
	LatencyP99US float64 `json:"latency_p99_us,omitempty"`
	// MinThroughputRPS floors the served throughput.
	MinThroughputRPS float64 `json:"min_throughput_rps,omitempty"`
	// MaxDropRatePct caps the admission drop rate in percent. A
	// pointer so an explicit 0 ("drop nothing") is distinct from
	// untargeted.
	MaxDropRatePct *float64 `json:"max_drop_rate_pct,omitempty"`
	// TenantTTFTP99US caps p99 time-to-first-token per tenant label —
	// the multi-tenant sharpening of TTFTP99US, checked against the
	// summary's per-tenant roll-ups. Like the aggregate target it needs
	// the KV model; a targeted tenant absent from the summary (or with
	// nothing served) fails its dimension. Dimensions are named
	// "ttft_p99_us[<tenant>]" in sorted tenant order.
	TenantTTFTP99US map[string]float64 `json:"tenant_ttft_p99_us,omitempty"`
}

// Validate rejects an empty or malformed SLO.
func (s SLO) Validate() error {
	for _, t := range []struct {
		name string
		v    float64
	}{
		{DimTTFTP99, s.TTFTP99US},
		{DimLatencyP99, s.LatencyP99US},
		{DimMinThroughput, s.MinThroughputRPS},
	} {
		if t.v < 0 || math.IsNaN(t.v) || math.IsInf(t.v, 0) {
			return fmt.Errorf("%s must be a finite non-negative target, got %v", t.name, t.v)
		}
	}
	if s.MaxDropRatePct != nil {
		if d := *s.MaxDropRatePct; d < 0 || d > 100 || math.IsNaN(d) {
			return fmt.Errorf("%s must be in [0, 100], got %v", DimMaxDropRate, d)
		}
	}
	for tenant, v := range s.TenantTTFTP99US {
		if tenant == "" {
			return fmt.Errorf("tenant_%s targets need a non-empty tenant label", DimTTFTP99)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tenant_%s[%s] must be a finite positive target, got %v", DimTTFTP99, tenant, v)
		}
	}
	if s.TTFTP99US == 0 && s.LatencyP99US == 0 && s.MinThroughputRPS == 0 &&
		s.MaxDropRatePct == nil && len(s.TenantTTFTP99US) == 0 {
		return errors.New("SLO needs at least one target")
	}
	return nil
}

// Dimension is one SLO target checked against one simulated summary.
type Dimension struct {
	// Name is the target's wire name (one of the Dim* constants).
	Name string `json:"name"`
	// Target and Achieved are in the dimension's own unit (µs, rps or
	// percent).
	Target   float64 `json:"target"`
	Achieved float64 `json:"achieved"`
	// HeadroomPct is the relative margin to the target: positive means
	// the target is met with room, negative quantifies the violation.
	// For a zero-valued target (only max_drop_rate_pct can have one)
	// the margin is absolute percentage points instead.
	HeadroomPct float64 `json:"headroom_pct"`
	// OK reports whether the target is met.
	OK bool `json:"ok"`
}

// Check evaluates every targeted dimension against a fleet summary and
// reports whether all of them are met. A summary that served nothing
// fails every latency target: its percentiles are vacuous zeros, not
// evidence of speed.
func (s SLO) Check(sum serving.FleetSummary) ([]Dimension, bool) {
	var dims []Dimension
	ok := true
	add := func(d Dimension) {
		dims = append(dims, d)
		ok = ok && d.OK
	}
	if s.TTFTP99US > 0 {
		add(capDim(DimTTFTP99, s.TTFTP99US, sum.P99TTFTUS, sum.Served > 0))
	}
	if len(s.TenantTTFTP99US) > 0 {
		tenants := make([]string, 0, len(s.TenantTTFTP99US))
		for t := range s.TenantTTFTP99US {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		byTenant := make(map[string]serving.TenantStats, len(sum.PerTenant))
		for _, ts := range sum.PerTenant {
			byTenant[ts.Tenant] = ts
		}
		for _, t := range tenants {
			ts, present := byTenant[t]
			add(capDim(fmt.Sprintf("%s[%s]", DimTTFTP99, t),
				s.TenantTTFTP99US[t], ts.P99TTFTUS, present && ts.Served > 0))
		}
	}
	if s.LatencyP99US > 0 {
		add(capDim(DimLatencyP99, s.LatencyP99US, sum.P99LatencyUS, sum.Served > 0))
	}
	if s.MinThroughputRPS > 0 {
		got := sum.ThroughputRPS
		add(Dimension{
			Name:        DimMinThroughput,
			Target:      s.MinThroughputRPS,
			Achieved:    got,
			HeadroomPct: (got - s.MinThroughputRPS) / s.MinThroughputRPS * 100,
			OK:          got >= s.MinThroughputRPS,
		})
	}
	if s.MaxDropRatePct != nil {
		target, got := *s.MaxDropRatePct, sum.DropRatePct
		d := Dimension{Name: DimMaxDropRate, Target: target, Achieved: got, OK: got <= target}
		if target > 0 {
			d.HeadroomPct = (target - got) / target * 100
		} else {
			d.HeadroomPct = -got
		}
		add(d)
	}
	return dims, ok
}

// capDim builds a "stay under the target" dimension.
func capDim(name string, target, got float64, served bool) Dimension {
	return Dimension{
		Name:        name,
		Target:      target,
		Achieved:    got,
		HeadroomPct: (target - got) / target * 100,
		OK:          served && got <= target,
	}
}

// Candidate is one point of the search space: a fleet shape the probe
// can price. Zero-valued axes mean "the probe's base configuration" —
// its default batching policy and KV setup.
type Candidate struct {
	// Replicas is the fleet size.
	Replicas int `json:"replicas"`
	// Routing names the routing policy ("rr", "least", "jsq", "po2",
	// "kv").
	Routing string `json:"routing"`
	// Policy optionally overrides the probe's base batching policy
	// ("fixed", "dynamic", "length"); empty keeps the base.
	Policy string `json:"policy,omitempty"`
	// KVCapacityGB optionally overrides the probe's per-replica KV
	// capacity (decimal gigabytes); zero keeps the base.
	KVCapacityGB float64 `json:"kv_capacity_gb,omitempty"`
	// Stop marks a verdict-only call: Solve will read only whether the
	// summary meets the SLO, so the probe may pass the rule on as
	// serving.FleetSpec.Stop and let the run end once it certainly
	// misses the SLO's latency or drop cap. nil asks for the full run.
	// A probe that ignores it stays correct, only slower.
	Stop *serving.StopRule `json:"-"`
}

// Probe prices one candidate fleet at one offered Poisson rate. It
// must be a pure function of its candidate and rate: the same call
// returns the same summary whatever was probed before it, so the
// planner's output is as reproducible as its probe, and the chosen
// plan's summary is the one a direct simulation of that fleet reports.
// It is called sequentially, so it may keep unsynchronized caches and
// buffers across calls, such as traces, policies, or a serving.Runner
// with its run arrays and price table, as long as its answer stays a
// pure function of candidate and rate. A stateful piece whose state
// would reach the answer, such as a router, is built per call.
type Probe func(c Candidate, ratePerSec float64) (serving.FleetSummary, error)

// Spec is one planning problem.
type Spec struct {
	// SLO is the target envelope; at least one target must be set.
	SLO SLO
	// RatePerSec is the offered load the plan must carry.
	RatePerSec float64
	// MaxReplicas bounds the replica search; 0 uses
	// DefaultMaxReplicas.
	MaxReplicas int
	// Routings is the routing axis, searched in order; empty uses
	// DefaultRoutings.
	Routings []string
	// Policies is the optional batching-policy axis; empty searches
	// only the probe's base policy.
	Policies []string
	// KVCapacitiesGB is the optional per-replica KV capacity axis
	// (sorted ascending by Solve, so ties break toward less memory);
	// empty searches only the probe's base KV configuration.
	KVCapacitiesGB []float64
	// KneeFactorMax and KneeIters shape the saturation analysis; 0
	// uses the defaults.
	KneeFactorMax float64
	KneeIters     int
	// Probe prices candidates; required.
	Probe Probe
}

// DefaultRoutings is the routing axis searched when the spec leaves it
// empty: the oblivious baseline plus the queue-aware policies, in
// increasing coordination cost.
func DefaultRoutings() []string {
	return []string{
		serving.RoutingRoundRobin,
		serving.RoutingLeastOutstanding,
		serving.RoutingJSQ,
		serving.RoutingPowerOfTwo,
	}
}

// Saturation locates the chosen plan relative to its breaking point.
type Saturation struct {
	// Bottleneck names the resource closest to its ceiling at the
	// planned operating point: "compute" (replica busy fraction),
	// "queue" (waiting dominates latency, or requests are already
	// dropping) or "kv_bytes" (cache occupancy near capacity).
	Bottleneck string `json:"bottleneck"`
	// ComputePct is the mean replica utilization.
	ComputePct float64 `json:"compute_pct"`
	// QueuePct is queueing pressure: the share of mean latency spent
	// waiting, or 100 if the fleet is already dropping requests.
	QueuePct float64 `json:"queue_pct"`
	// KVPct is peak KV-cache occupancy against capacity; omitted
	// without the KV model.
	KVPct float64 `json:"kv_pct,omitempty"`
	// SLOHeadroomPct is the tightest target's headroom at the planned
	// rate — how much margin the plan actually has.
	SLOHeadroomPct float64 `json:"slo_headroom_pct"`
	// KneeRPS is the highest offered rate (within KneeFactorMax× the
	// planned rate) at which the chosen fleet still meets the SLO;
	// KneeFactor is the same as a multiple of the planned rate. The
	// knee is where the latency/throughput curve leaves the SLO box.
	KneeRPS    float64 `json:"knee_rps"`
	KneeFactor float64 `json:"knee_factor"`
	// KneeCapped reports that the fleet still met the SLO at
	// KneeFactorMax — the true knee lies beyond the probed range.
	KneeCapped bool `json:"knee_capped,omitempty"`
}

// Plan is the planner's answer: the minimal-cost candidate meeting the
// SLO, the evidence, and where it breaks.
type Plan struct {
	// Replicas, Routing, Policy and KVCapacityGB identify the chosen
	// candidate. Policy is the resolved policy name from the
	// simulation (e.g. "dynamic(64,50000us)"); KVCapacityGB is zero
	// when the probe's base KV configuration was kept.
	Replicas     int     `json:"replicas"`
	Routing      string  `json:"routing"`
	Policy       string  `json:"policy"`
	KVCapacityGB float64 `json:"kv_capacity_gb,omitempty"`
	// RatePerSec echoes the planned offered load.
	RatePerSec float64 `json:"rate_rps"`
	// CostReplicaSeconds is the plan's cost metric: replica-seconds of
	// capacity provisioned over the simulated horizon.
	CostReplicaSeconds float64 `json:"cost_replica_seconds"`
	// Evaluations counts probe calls the search spent, knee analysis
	// included — the planner's convergence measure.
	Evaluations int `json:"evaluations"`
	// SLO reports every targeted dimension at the chosen point.
	SLO []Dimension `json:"slo"`
	// Saturation is the headroom/bottleneck/knee analysis.
	Saturation Saturation `json:"saturation"`
	// Summary is the full fleet roll-up at the chosen point.
	Summary serving.FleetSummary `json:"summary"`
}

// Serialize renders the plan as deterministic, diff-friendly JSON.
func (p Plan) Serialize() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serializing plan: %w", err)
	}
	return append(b, '\n'), nil
}

// normalize fills spec defaults.
func (s Spec) normalize() Spec {
	if s.MaxReplicas == 0 {
		s.MaxReplicas = DefaultMaxReplicas
	}
	if len(s.Routings) == 0 {
		s.Routings = DefaultRoutings()
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{""}
	}
	if len(s.KVCapacitiesGB) == 0 {
		s.KVCapacitiesGB = []float64{0}
	} else {
		kv := append([]float64(nil), s.KVCapacitiesGB...)
		sort.Float64s(kv)
		s.KVCapacitiesGB = kv
	}
	if s.KneeFactorMax == 0 {
		s.KneeFactorMax = DefaultKneeFactorMax
	}
	if s.KneeIters == 0 {
		s.KneeIters = DefaultKneeIters
	}
	return s
}

func (s Spec) validate() error {
	if s.Probe == nil {
		return errors.New("spec needs a probe")
	}
	if s.RatePerSec <= 0 || math.IsNaN(s.RatePerSec) || math.IsInf(s.RatePerSec, 0) {
		return fmt.Errorf("rate must be a positive finite rate, got %v", s.RatePerSec)
	}
	if err := s.SLO.Validate(); err != nil {
		return err
	}
	if s.MaxReplicas < 1 {
		return fmt.Errorf("max replicas must be positive, got %d", s.MaxReplicas)
	}
	for _, gb := range s.KVCapacitiesGB {
		if gb < 0 || math.IsNaN(gb) || math.IsInf(gb, 0) {
			return fmt.Errorf("kv capacity must be a finite non-negative size, got %vGB", gb)
		}
	}
	if s.KneeFactorMax < 1 || math.IsNaN(s.KneeFactorMax) || math.IsInf(s.KneeFactorMax, 0) {
		return fmt.Errorf("knee factor max must be at least 1, got %v", s.KneeFactorMax)
	}
	if s.KneeIters < 1 {
		return fmt.Errorf("knee iters must be positive, got %d", s.KneeIters)
	}
	return nil
}

// evaluation is one probed point: the summary and its SLO verdict.
type evaluation struct {
	sum  serving.FleetSummary
	dims []Dimension
	ok   bool
}

// solver carries the search state across combinations.
type solver struct {
	spec  Spec
	evals int
	// stop is the rule verdict-only probes carry; nil when the SLO caps
	// neither latency nor drops.
	stop *serving.StopRule
}

// stopRule is the SLO's latency and drop caps as a fleet stop rule, or
// nil when it sets neither: only those caps can be certainly missed
// before a run ends. The other targets never stop a run, and since a
// run that misses one cap misses the SLO, they never prevent a stop.
func (s SLO) stopRule() *serving.StopRule {
	if s.LatencyP99US == 0 && s.MaxDropRatePct == nil {
		return nil
	}
	return &serving.StopRule{P99LatencyUS: s.LatencyP99US, MaxDropRatePct: s.MaxDropRatePct}
}

// probe prices one candidate and checks it against the SLO.
func (sv *solver) probe(c Candidate, rate float64) (evaluation, error) {
	sum, err := sv.spec.Probe(c, rate)
	if err != nil {
		return evaluation{}, fmt.Errorf("probing %d×%s at %.6g rps: %w", c.Replicas, c.Routing, rate, err)
	}
	sv.evals++
	if (sv.spec.SLO.TTFTP99US > 0 || len(sv.spec.SLO.TenantTTFTP99US) > 0) && sum.KVCapacityBytes == 0 {
		return evaluation{}, fmt.Errorf("%s target needs the KV capacity model, but the probe simulates without one", DimTTFTP99)
	}
	dims, ok := sv.spec.SLO.Check(sum)
	if ok && sum.Stopped {
		return evaluation{}, fmt.Errorf("probing %d×%s at %.6g rps: a run its stop rule ended early meets the SLO", c.Replicas, c.Routing, rate)
	}
	return evaluation{sum: sum, dims: dims, ok: ok}, nil
}

// Solve searches the candidate space for the minimal-cost plan meeting
// the SLO. Cost order: replica count first (compute dominates), then
// KV capacity ascending, then axis order — so with equal replica
// counts the earliest routing/policy entry wins. Returns an error
// wrapping ErrInfeasible when no in-bounds candidate meets every
// target.
func Solve(spec Spec) (Plan, error) {
	spec = spec.normalize()
	if err := spec.validate(); err != nil {
		return Plan{}, fmt.Errorf("planner: %w", err)
	}
	sv := &solver{spec: spec, stop: spec.SLO.stopRule()}

	type winner struct {
		cand Candidate
		eval evaluation
	}
	var best *winner
	// closest tracks the least-violating at-max-replicas evaluation for
	// the infeasibility message.
	var closest *winner

	for _, kvGB := range spec.KVCapacitiesGB {
		for _, policy := range spec.Policies {
			for _, routing := range spec.Routings {
				cand := Candidate{Routing: routing, Policy: policy, KVCapacityGB: kvGB}
				// A later combination can only improve on the incumbent by
				// strictly fewer replicas (ties keep the earlier, cheaper
				// axis entry), so cap its search below the incumbent.
				hi := spec.MaxReplicas
				if best != nil {
					hi = best.cand.Replicas - 1
				}
				if hi < 1 {
					continue
				}
				// Feasibility is monotone in replicas: check the ceiling
				// once, then binary-search the boundary. Until some
				// combination is feasible, a failing ceiling's summary may
				// be the closest one the infeasibility error names, so it
				// runs to the end; after that it is read for its verdict.
				cand.Replicas = hi
				if best != nil {
					cand.Stop = sv.stop
				}
				top, err := sv.probe(cand, spec.RatePerSec)
				if err != nil {
					return Plan{}, fmt.Errorf("planner: %w", err)
				}
				if !top.ok {
					if best == nil && (closest == nil || worstHeadroom(top.dims) > worstHeadroom(closest.eval.dims)) {
						closest = &winner{cand: cand, eval: top}
					}
					continue
				}
				// Every mid-point is read for its verdict alone: a feasible
				// one ran to the end, since a stopped run is infeasible.
				cand.Stop = sv.stop
				lo, hiR := 1, hi
				found := map[int]evaluation{hi: top}
				for lo < hiR {
					mid := (lo + hiR) / 2
					cand.Replicas = mid
					ev, err := sv.probe(cand, spec.RatePerSec)
					if err != nil {
						return Plan{}, fmt.Errorf("planner: %w", err)
					}
					if ev.ok {
						found[mid] = ev
						hiR = mid
					} else {
						lo = mid + 1
					}
				}
				cand.Replicas = lo
				best = &winner{cand: cand, eval: found[lo]}
			}
		}
	}

	if best == nil {
		if closest != nil {
			if d := firstViolated(closest.eval.dims); d != nil {
				return Plan{}, fmt.Errorf("planner: %w within %d replicas (closest: %d×%s, %s %.6g vs target %.6g)",
					ErrInfeasible, spec.MaxReplicas, closest.cand.Replicas, closest.cand.Routing,
					d.Name, d.Achieved, d.Target)
			}
		}
		return Plan{}, fmt.Errorf("planner: %w within %d replicas", ErrInfeasible, spec.MaxReplicas)
	}

	sat, err := sv.saturation(best.cand, best.eval)
	if err != nil {
		return Plan{}, fmt.Errorf("planner: %w", err)
	}
	return Plan{
		Replicas:           best.cand.Replicas,
		Routing:            best.cand.Routing,
		Policy:             best.eval.sum.Policy,
		KVCapacityGB:       best.cand.KVCapacityGB,
		RatePerSec:         spec.RatePerSec,
		CostReplicaSeconds: best.eval.sum.ReplicaSeconds,
		Evaluations:        sv.evals,
		SLO:                best.eval.dims,
		Saturation:         sat,
		Summary:            best.eval.sum,
	}, nil
}

// saturation runs the headroom/bottleneck/knee analysis at the chosen
// point.
func (sv *solver) saturation(cand Candidate, chosen evaluation) (Saturation, error) {
	sum := chosen.sum
	sat := Saturation{
		ComputePct:     sum.UtilizationPct,
		SLOHeadroomPct: worstHeadroom(chosen.dims),
	}
	if sum.MeanLatencyUS > 0 {
		sat.QueuePct = sum.MeanWaitUS / sum.MeanLatencyUS * 100
	}
	if sum.Rejected > 0 {
		// Dropping requests means the admission queue is at its ceiling
		// regardless of how latency decomposes.
		sat.QueuePct = 100
	}
	if sum.KVCapacityBytes > 0 {
		sat.KVPct = sum.KVPeakBytes / sum.KVCapacityBytes * 100
	}
	sat.Bottleneck = BottleneckCompute
	if sat.QueuePct > sat.ComputePct {
		sat.Bottleneck = BottleneckQueue
	}
	if sat.KVPct > sat.ComputePct && sat.KVPct > sat.QueuePct {
		sat.Bottleneck = BottleneckKVBytes
	}

	// Knee: bisect the load factor in [1, KneeFactorMax] for the
	// highest rate the chosen fleet still meets the SLO at. The factor
	// range is fixed and the iteration count is, too, so the probed
	// rates — and therefore the result — are deterministic. Each knee
	// probe is read for its verdict alone.
	spec := sv.spec
	cand.Stop = sv.stop
	top, err := sv.probe(cand, spec.RatePerSec*spec.KneeFactorMax)
	if err != nil {
		return Saturation{}, err
	}
	if top.ok {
		sat.KneeFactor = spec.KneeFactorMax
		sat.KneeRPS = spec.RatePerSec * spec.KneeFactorMax
		sat.KneeCapped = true
		return sat, nil
	}
	lo, hi := 1.0, spec.KneeFactorMax
	for i := 0; i < spec.KneeIters; i++ {
		mid := (lo + hi) / 2
		ev, err := sv.probe(cand, spec.RatePerSec*mid)
		if err != nil {
			return Saturation{}, err
		}
		if ev.ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	sat.KneeFactor = lo
	sat.KneeRPS = spec.RatePerSec * lo
	return sat, nil
}

// worstHeadroom is the minimum headroom across dimensions: the
// tightest target's margin.
func worstHeadroom(dims []Dimension) float64 {
	worst := math.Inf(1)
	for _, d := range dims {
		if d.HeadroomPct < worst {
			worst = d.HeadroomPct
		}
	}
	if math.IsInf(worst, 1) {
		return 0
	}
	return worst
}

// firstViolated returns the first unmet dimension, if any.
func firstViolated(dims []Dimension) *Dimension {
	for i := range dims {
		if !dims[i].OK {
			return &dims[i]
		}
	}
	return nil
}
