package serving

import (
	"encoding/json"

	"seqpoint/internal/stats"
)

// FleetSummary is the deterministic, serialization-stable digest of a
// fleet run: the roll-up POST /v1/fleet returns and the golden
// determinism tests byte-compare. It extends the single-queue Summary
// with admission (drop rate), per-replica shares, and the autoscaler's
// cost proxy (replica-seconds).
type FleetSummary struct {
	Config   string `json:"config"`
	Routing  string `json:"routing"`
	Policy   string `json:"policy"`
	Replicas int    `json:"replicas"`
	QueueCap int    `json:"queue_cap"`

	Requests    int     `json:"requests"`
	Served      int     `json:"served"`
	Rejected    int     `json:"rejected"`
	DropRatePct float64 `json:"drop_rate_pct"`

	Batches        int     `json:"batches"`
	MeanBatch      float64 `json:"mean_batch"`
	MakespanUS     float64 `json:"makespan_us"`
	BusyUS         float64 `json:"busy_us"`
	UtilizationPct float64 `json:"utilization_pct"`
	ThroughputRPS  float64 `json:"throughput_rps"`

	MeanWaitUS    float64 `json:"mean_wait_us"`
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`

	ReplicaSeconds float64 `json:"replica_seconds"`
	ScaleUps       int     `json:"scale_ups"`
	ScaleDowns     int     `json:"scale_downs"`
	PeakReplicas   int     `json:"peak_replicas"`

	// KV-model roll-ups, only emitted when the run had KV enabled
	// (omitempty keeps KV-off summaries byte-identical to the pre-KV
	// format). TTFT is arrival → prefill completion; Disagg names the
	// prefill/decode pool split for disaggregated topologies.
	MeanTTFTUS      float64 `json:"mean_ttft_us,omitempty"`
	P50TTFTUS       float64 `json:"p50_ttft_us,omitempty"`
	P95TTFTUS       float64 `json:"p95_ttft_us,omitempty"`
	P99TTFTUS       float64 `json:"p99_ttft_us,omitempty"`
	Preemptions     int     `json:"preemptions,omitempty"`
	KVCapacityBytes float64 `json:"kv_capacity_bytes,omitempty"`
	KVPeakBytes     float64 `json:"kv_peak_bytes,omitempty"`
	Disagg          string  `json:"disagg,omitempty"`

	// PerTenant rolls latency tails and drop rates up by tenant, sorted
	// by label; nil (and omitted) on single-tenant traces.
	PerTenant []TenantStats `json:"per_tenant,omitempty"`

	PerReplica []ReplicaStats `json:"per_replica"`

	// Stopped marks the digest of a run its stop rule ended early: it
	// covers only the requests resolved by then and misses a cap of the
	// rule. It is not serialized.
	Stopped bool `json:"-"`
}

// Throughput returns served requests per second over the makespan.
func (r *FleetResult) Throughput() float64 {
	if r.MakespanUS == 0 {
		return 0
	}
	return float64(len(r.Requests)) / (r.MakespanUS / 1e6)
}

// Summary digests the run. Latency percentiles are nearest-rank over
// served requests only; rejected requests contribute to the drop rate,
// not the tail. Utilization is busy time over live time summed across
// replicas, so an autoscaled fleet is judged on the capacity it
// actually kept on.
func (r *FleetResult) Summary() FleetSummary {
	return r.summary(make([]float64, len(r.Requests)))
}

// summary is Summary ranking in xs, which has one slot per served
// request; the digest keeps no reference to it.
func (r *FleetResult) summary(xs []float64) FleetSummary {
	s := FleetSummary{
		Config:         r.Config.Name,
		Routing:        r.Routing,
		Policy:         r.Policy,
		Replicas:       r.Replicas,
		QueueCap:       r.QueueCap,
		Requests:       len(r.Requests) + len(r.Rejections),
		Served:         len(r.Requests),
		Rejected:       len(r.Rejections),
		Batches:        r.Batches,
		MakespanUS:     r.MakespanUS,
		BusyUS:         r.BusyUS,
		ThroughputRPS:  r.Throughput(),
		ReplicaSeconds: r.ReplicaSeconds,
		ScaleUps:       r.ScaleUps,
		ScaleDowns:     r.ScaleDowns,
		PeakReplicas:   r.PeakReplicas,
		PerReplica:     append([]ReplicaStats(nil), r.ReplicaStats...),
		Stopped:        r.Stopped,
	}
	if s.Requests > 0 {
		s.DropRatePct = float64(s.Rejected) / float64(s.Requests) * 100
	}
	if r.Batches > 0 {
		s.MeanBatch = float64(s.Served) / float64(r.Batches)
	}
	var liveUS float64
	for _, rs := range r.ReplicaStats {
		liveUS += rs.LiveUS
	}
	if liveUS > 0 {
		s.UtilizationPct = r.BusyUS / liveUS * 100
	}
	if r.KV != nil {
		// Scalars first, so even an all-rejected run reports its
		// capacity configuration and admission-time peak.
		s.Preemptions = r.KV.Preemptions
		s.KVCapacityBytes = r.KV.CapacityBytes
		s.KVPeakBytes = r.KV.PeakBytes
		s.Disagg = r.Disagg
	}
	s.PerTenant = perTenantStats(r.Requests, r.Rejections, r.KV != nil)
	if s.Served == 0 {
		return s
	}
	// xs is ranked in place: first the latencies, then the TTFTs, which
	// overwrite every slot. The loops read each metric in place, through
	// the pointer helpers: the value methods would copy it per call.
	var waitSum float64
	for i := range r.Requests {
		m := &r.Requests[i]
		xs[i] = m.latency()
		waitSum += m.wait()
	}
	s.MeanWaitUS = waitSum / float64(len(r.Requests))
	s.MeanLatencyUS, s.P50LatencyUS, s.P95LatencyUS, s.P99LatencyUS = digest(xs)
	if r.KV != nil {
		for i := range r.Requests {
			xs[i] = r.Requests[i].ttft()
		}
		s.MeanTTFTUS, s.P50TTFTUS, s.P95TTFTUS, s.P99TTFTUS = digest(xs)
	}
	return s
}

// digest returns the mean and nearest-rank p50/p95/p99 of xs. The mean
// sums xs in its given order; the ranks are then selected in place
// (stats.PercentilesInPlace), which reorders xs in O(len(xs)) rather
// than sorting it, so callers pass their own scratch instead of having
// a million-element slice copied. xs must be non-empty; the
// percentiles stay 0 if it holds a non-finite value.
func digest(xs []float64) (mean, p50, p95, p99 float64) {
	mean = stats.Sum(xs) / float64(len(xs))
	if ps, err := stats.PercentilesInPlace(xs, 50, 95, 99); err == nil {
		p50, p95, p99 = ps[0], ps[1], ps[2]
	}
	return mean, p50, p95, p99
}

// singleQueue projects the digest onto the single-queue Summary: every
// field the two types share, by name.
func (s FleetSummary) singleQueue() Summary {
	return Summary{
		Config:          s.Config,
		Policy:          s.Policy,
		Requests:        s.Requests,
		Batches:         s.Batches,
		MeanBatch:       s.MeanBatch,
		MakespanUS:      s.MakespanUS,
		BusyUS:          s.BusyUS,
		UtilizationPct:  s.UtilizationPct,
		ThroughputRPS:   s.ThroughputRPS,
		MeanWaitUS:      s.MeanWaitUS,
		MeanLatencyUS:   s.MeanLatencyUS,
		P50LatencyUS:    s.P50LatencyUS,
		P95LatencyUS:    s.P95LatencyUS,
		P99LatencyUS:    s.P99LatencyUS,
		MeanTTFTUS:      s.MeanTTFTUS,
		P50TTFTUS:       s.P50TTFTUS,
		P95TTFTUS:       s.P95TTFTUS,
		P99TTFTUS:       s.P99TTFTUS,
		Preemptions:     s.Preemptions,
		KVCapacityBytes: s.KVCapacityBytes,
		KVPeakBytes:     s.KVPeakBytes,
		PerTenant:       s.PerTenant,
	}
}

// Serialize renders the summary as indented JSON with a trailing
// newline; the output is deterministic and byte-comparable, matching
// the Summary and trainer.RunSummary conventions.
func (s FleetSummary) Serialize() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
