package serving

import "sort"

// TenantStats is one tenant's share of a serving or fleet run: its
// admission outcome and latency/TTFT tail. Summaries carry a sorted
// per-tenant slice only when the trace was tenanted, so single-tenant
// runs serialize byte-identically to the pre-tenant format.
type TenantStats struct {
	// Tenant is the tenant label.
	Tenant string `json:"tenant"`
	// Requests, Served and Rejected partition the tenant's arrivals
	// (Requests = Served + Rejected — the per-tenant conservation the
	// fleet fuzzer asserts).
	Requests int `json:"requests"`
	Served   int `json:"served"`
	Rejected int `json:"rejected"`
	// DropRatePct is Rejected over Requests in percent.
	DropRatePct float64 `json:"drop_rate_pct"`
	// MeanLatencyUS and the percentiles digest the tenant's served
	// end-to-end latencies (nearest-rank, like the aggregate summary).
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	// TTFT roll-ups, only emitted under the KV model where the
	// prefill/decode phases are separable.
	MeanTTFTUS float64 `json:"mean_ttft_us,omitempty"`
	P99TTFTUS  float64 `json:"p99_ttft_us,omitempty"`
}

// perTenantStats rolls served metrics and rejections up by tenant,
// sorted by tenant label. It returns nil when no request carries a
// tenant — the strict-generalization switch that keeps single-tenant
// summaries byte-identical. kvOn gates the TTFT digests.
func perTenantStats(metrics []RequestMetric, rejections []Rejection, kvOn bool) []TenantStats {
	var (
		idx   map[string]int
		order []string
	)
	slot := func(tenant string) int {
		if idx == nil {
			idx = make(map[string]int)
		}
		i, ok := idx[tenant]
		if !ok {
			i = len(order)
			idx[tenant] = i
			order = append(order, tenant)
		}
		return i
	}
	type acc struct {
		served, rejected int
		lats, ttfts      []float64
	}
	var accs []acc
	grow := func(i int) *acc {
		for len(accs) <= i {
			accs = append(accs, acc{})
		}
		return &accs[i]
	}
	for i := range metrics {
		m := &metrics[i]
		if m.Tenant == "" {
			continue
		}
		a := grow(slot(m.Tenant))
		a.served++
		a.lats = append(a.lats, m.latency())
		if kvOn {
			a.ttfts = append(a.ttfts, m.ttft())
		}
	}
	for _, rej := range rejections {
		if rej.Tenant == "" {
			continue
		}
		grow(slot(rej.Tenant)).rejected++
	}
	if len(order) == 0 {
		return nil
	}
	sort.Strings(order)
	out := make([]TenantStats, 0, len(order))
	for _, tenant := range order {
		a := accs[idx[tenant]]
		ts := TenantStats{
			Tenant:   tenant,
			Requests: a.served + a.rejected,
			Served:   a.served,
			Rejected: a.rejected,
		}
		if ts.Requests > 0 {
			ts.DropRatePct = float64(ts.Rejected) / float64(ts.Requests) * 100
		}
		if len(a.lats) > 0 {
			ts.MeanLatencyUS, ts.P50LatencyUS, ts.P95LatencyUS, ts.P99LatencyUS = digest(a.lats)
		}
		if kvOn && len(a.ttfts) > 0 {
			ts.MeanTTFTUS, _, _, ts.P99TTFTUS = digest(a.ttfts)
		}
		out = append(out, ts)
	}
	return out
}
