package experiments

import (
	"fmt"
	"sort"
	"strings"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
	"seqpoint/internal/serving"
	"seqpoint/internal/stats"
	"seqpoint/internal/workload"
)

// This file is the multi-tenant scheduling experiment: the same
// diurnal, Zipf-skewed two-cohort trace served under FIFO full-batch
// gating and under tenant-aware weighted-fair batching. The mechanism
// under test: a bulk tenant submits work in clumps that self-fill
// whole FIFO batches, so its own requests see short waits while the
// sparse interactive tenants wait for the *next* clump to fill their
// batch — interactive p99 lands above batch p99 even though
// interactive requests are cheaper. The fair pick gives every queued
// tenant a slot per dispatch, collapsing the interactive tail at a
// small aggregate-throughput cost (timeout-gated partial batches).

// Tenant-sweep workload shape.
const (
	// DefaultTenantLoadFactor is the *mean* offered load; the diurnal
	// peak runs at mean × (1 + amplitude) = 0.9 of capacity, so the
	// sweep touches the saturation knee at peak without accumulating a
	// runaway backlog across the peak half-cycle.
	DefaultTenantLoadFactor = 0.6
	// tenantSweepChatTenants interactive tenants share the chat cohort,
	// Zipf-skewed so one dominates (the realistic shape).
	tenantSweepChatTenants = 3
	// tenantSweepChatWeight weights interactive arrival *events* so
	// that, with each bulk event contributing a whole clump, the chat
	// cohort lands near a quarter of request volume:
	// 48/(48+2·batch) ≈ 0.27 at batch 64.
	tenantSweepChatWeight = 48
	// tenantSweepChatZipfS skews popularity within the chat cohort.
	tenantSweepChatZipfS = 1.1
	// tenantSweepBurstBatches is the bulk clump size in units of the
	// policy's max batch: each bulk submission fills this many whole
	// batches at one instant.
	tenantSweepBurstBatches = 2
	// tenantSweepDiurnalAmplitude shapes the arrival rate ±50% around
	// the mean over two cycles per trace.
	tenantSweepDiurnalAmplitude = 0.5
	// tenantClassChat and tenantClassBatch label the two cohorts.
	tenantClassChat  = "chat"
	tenantClassBatch = "batch"
)

// TenantSweepRow is one batching policy's outcome on the shared
// multi-tenant trace.
type TenantSweepRow struct {
	// Policy is the batching policy's resolved name.
	Policy string
	// ThroughputRPS is aggregate served requests per second.
	ThroughputRPS float64
	// InteractiveP50US/P99US digest the chat cohort's latency;
	// BatchP99US the bulk cohort's.
	InteractiveP50US float64
	InteractiveP99US float64
	BatchP99US       float64
	// StarvationRatio is interactive p99 over batch p99: above 1 the
	// cheap interactive requests fare worse than the bulk work load
	// they are queued behind.
	StarvationRatio float64
}

// TenantSweepResult contrasts FIFO and tenant-aware batching at equal
// load on one workload.
type TenantSweepResult struct {
	// Network is the workload name.
	Network string
	// Batch is the max batch size both policies share.
	Batch int
	// RatePerSec is the offered rate (LoadFactor × measured capacity);
	// Requests the trace length.
	RatePerSec float64
	LoadFactor float64
	Requests   int
	// Trace names the generated multi-tenant trace.
	Trace string
	// Tenants lists the distinct tenant labels in first-arrival order.
	Tenants []string
	// Rows are the per-policy outcomes: FIFO first, weighted-fair
	// second.
	Rows []TenantSweepRow
}

// tenantSweepTrace generates the shared two-cohort diurnal Zipf trace:
// interactive tenants draw from the short quartile of the corpus,
// the bulk tenant from the long quartile in full-batch clumps. rate is
// the mean *request* rate; the generator paces arrival events, so it
// is converted through the expected clump size per event.
func tenantSweepTrace(w Workload, requests int, rate float64) (serving.Trace, error) {
	sorted := append([]int(nil), w.Train.Lengths...)
	sort.Ints(sorted)
	n := len(sorted)
	shortPool := sorted[:max(1, n/4)]
	longPool := sorted[n-max(1, n/4):]
	burst := tenantSweepBurstBatches * w.Batch
	reqsPerEvent := (tenantSweepChatWeight + float64(burst)) / (tenantSweepChatWeight + 1)
	horizonUS := float64(requests) / rate * 1e6
	tr, err := workload.Generate(workload.GenSpec{
		Requests:   requests,
		RatePerSec: rate / reqsPerEvent,
		Seed:       w.Seed,
		Pattern: workload.Pattern{
			Kind:      workload.PatternDiurnal,
			PeriodUS:  horizonUS / 2,
			Amplitude: tenantSweepDiurnalAmplitude,
		},
		Cohorts: []workload.Cohort{
			{
				Class:   tenantClassChat,
				Tenants: tenantSweepChatTenants,
				Weight:  tenantSweepChatWeight,
				ZipfS:   tenantSweepChatZipfS,
				SeqLens: shortPool,
			},
			{
				Class:   tenantClassBatch,
				Tenants: 1,
				Weight:  1,
				SeqLens: longPool,
				Burst:   burst,
			},
		},
	})
	if err != nil {
		return serving.Trace{}, err
	}
	// The event-rate conversion is only right in expectation — a few
	// heavy clumps of draw variance swing the realized volume by tens
	// of percent, and at-the-knee calibration cannot absorb that.
	// Rescaling the arrivals pins the realized mean request rate
	// exactly while preserving the diurnal shape and the clumps.
	return tr.ScaleToRate(rate)
}

// classP50P99 digests the latency tail of one tenant class (by label
// prefix) from raw request metrics.
func classP50P99(metrics []serving.RequestMetric, class string) (p50, p99 float64, err error) {
	var lats []float64
	prefix := class + "-"
	for _, m := range metrics {
		if strings.HasPrefix(m.Tenant, prefix) {
			lats = append(lats, m.LatencyUS())
		}
	}
	if len(lats) == 0 {
		return 0, 0, fmt.Errorf("experiments: tenant sweep served no %q requests", class)
	}
	ps, err := stats.PercentilesInPlace(lats, 50, 99)
	if err != nil {
		return 0, 0, err
	}
	return ps[0], ps[1], nil
}

// TenantSweep serves one generated multi-tenant trace — diurnal
// arrivals, Zipf-skewed interactive tenants, a clumping bulk tenant —
// under FIFO full-batch gating (fixed) and under tenant-aware
// weighted-fair batching (wfq) at the same offered load, and reports
// each cohort's latency tail. The FIFO row exhibits the starvation
// inversion (interactive p99 above batch p99); the wfq row shows its
// mitigation and what it costs in aggregate throughput.
func TenantSweep(lab *Lab, w Workload, cfg gpusim.Config, requests int, loadFactor float64) (TenantSweepResult, error) {
	if loadFactor == 0 {
		loadFactor = DefaultTenantLoadFactor
	}
	if err := ValidateLoadFactors([]float64{loadFactor}); err != nil {
		return TenantSweepResult{}, err
	}
	run, err := newSweepRunner(lab, w, cfg, requests)
	if err != nil {
		return TenantSweepResult{}, err
	}
	// Calibrate the knee on the tenant mix itself, not the corpus mix:
	// the bulk cohort draws from the long quartile, so corpus-mix
	// capacity would overshoot and push the sweep into deep overload.
	// The probe trace shares the generator seed with the real one, so
	// its request mix is identical; only arrival times differ.
	capacity, err := run.capacity(tenantSweepTrace(w, run.requests, 1))
	if err != nil {
		return TenantSweepResult{}, err
	}
	rate := loadFactor * capacity
	trace, err := tenantSweepTrace(w, run.requests, rate)
	if err != nil {
		return TenantSweepResult{}, err
	}
	serviceUS, err := fullBatchServiceUS(run.eng, w, cfg)
	if err != nil {
		return TenantSweepResult{}, err
	}
	fifo, err := serving.NewFixedBatch(w.Batch)
	if err != nil {
		return TenantSweepResult{}, err
	}
	wfq, err := serving.NewWFQBatch(w.Batch, serviceUS)
	if err != nil {
		return TenantSweepResult{}, err
	}

	res := TenantSweepResult{
		Network:    w.Name,
		Batch:      w.Batch,
		RatePerSec: rate,
		LoadFactor: loadFactor,
		Requests:   run.requests,
		Trace:      trace.Name,
		Tenants:    trace.Tenants(),
	}
	for _, policy := range []serving.Policy{fifo, wfq} {
		arm, err := run.simulate(serving.FleetSpec{Trace: trace, Policy: policy})
		if err != nil {
			return TenantSweepResult{}, fmt.Errorf("experiments: tenant sweep %s under %s: %w", w.Name, policy.Name(), err)
		}
		chatP50, chatP99, err := classP50P99(arm.Requests, tenantClassChat)
		if err != nil {
			return TenantSweepResult{}, err
		}
		_, batchP99, err := classP50P99(arm.Requests, tenantClassBatch)
		if err != nil {
			return TenantSweepResult{}, err
		}
		row := TenantSweepRow{
			Policy:           policy.Name(),
			ThroughputRPS:    arm.Throughput(),
			InteractiveP50US: chatP50,
			InteractiveP99US: chatP99,
			BatchP99US:       batchP99,
		}
		if batchP99 > 0 {
			row.StarvationRatio = chatP99 / batchP99
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// tenantSweepColumns declares the FIFO-vs-fair contrast's table and
// CSV.
var tenantSweepColumns = []column[TenantSweepRow]{
	textCol("policy", "policy", func(r TenantSweepRow) string { return r.Policy }),
	floatCol("served/s", "throughput_rps", fixed("%.0f"), func(r TenantSweepRow) float64 { return r.ThroughputRPS }),
	floatCol("interactive p50", "interactive_p50_us", report.US, func(r TenantSweepRow) float64 { return r.InteractiveP50US }),
	floatCol("interactive p99", "interactive_p99_us", report.US, func(r TenantSweepRow) float64 { return r.InteractiveP99US }),
	floatCol("batch p99", "batch_p99_us", report.US, func(r TenantSweepRow) float64 { return r.BatchP99US }),
	floatCol("p99 ratio", "starvation_ratio", fixed("%.2f"), func(r TenantSweepRow) float64 { return r.StarvationRatio }),
}

// Render formats the FIFO-vs-fair contrast.
func (r TenantSweepResult) Render() string {
	return textTable(fmt.Sprintf("Multi-tenant serving — %s: %d tenants, diurnal Zipf trace at %.0f req/s (%.2fx load), batch %d",
		r.Network, len(r.Tenants), r.RatePerSec, r.LoadFactor, r.Batch), tenantSweepColumns, r.Rows)
}

// CSV renders the contrast for external plotting.
func (r TenantSweepResult) CSV() string { return csvTable(tenantSweepColumns, r.Rows) }
