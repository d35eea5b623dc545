package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"seqpoint/internal/core"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
)

// ScaleOutRow is one GPU count's data-parallel scaling outcome.
type ScaleOutRow struct {
	// GPUs is the cluster size.
	GPUs int
	// ShardBatch is the per-GPU share of the global minibatch.
	ShardBatch int
	// ThroughputSPS is full-simulation training throughput in samples/s.
	ThroughputSPS float64
	// SpeedupX is the throughput ratio against the 1-GPU run.
	SpeedupX float64
	// EfficiencyPct is SpeedupX / GPUs — the parallel efficiency.
	EfficiencyPct float64
	// CommSharePct is the exposed-communication share of training time.
	CommSharePct float64
	// ProjTrainUS is the SeqPoint projection of one epoch's training
	// time on this cluster, from SeqPoints selected on the 1-GPU run.
	ProjTrainUS float64
	// ActualTrainUS is the full simulation's epoch-0 training time.
	ActualTrainUS float64
	// ProjErrPct is the absolute projection error.
	ProjErrPct float64
}

// ScaleOutResult is the data-parallel scaling curve of one workload:
// the scale-out axis the paper's single-GPU evaluation stops short of.
// SeqPoint composes with it unchanged — SeqPoints are selected once on
// the 1-GPU calibration run and Equation 1 projects each cluster size
// from per-SL step times alone.
type ScaleOutResult struct {
	Network   string
	Topology  gpusim.Topology
	LinkGBps  float64
	SeqPoints int
	Rows      []ScaleOutRow
}

// ScaleOut sweeps the workload over data-parallel cluster sizes on cfg,
// with the interconnect described by base (its GPUs field is overridden
// per sweep point). For each size it runs the full simulation and a
// SeqPoint projection seeded from the single-GPU run, reporting
// throughput, parallel efficiency, exposed-communication share, and
// projection error.
func ScaleOut(lab *Lab, w Workload, cfg gpusim.Config, base gpusim.ClusterConfig, gpuCounts []int, opts core.Options) (ScaleOutResult, error) {
	if len(gpuCounts) == 0 {
		return ScaleOutResult{}, fmt.Errorf("experiments: scale-out needs at least one GPU count")
	}
	counts := append([]int(nil), gpuCounts...)
	sort.Ints(counts)
	if counts[0] < 1 {
		return ScaleOutResult{}, fmt.Errorf("experiments: GPU counts must be positive, got %d", counts[0])
	}

	cluster := func(n int) gpusim.ClusterConfig {
		c := base
		c.GPUs = n
		return c.Normalized()
	}

	// The 1-GPU calibration run: SeqPoints are selected here and reused
	// for every cluster size, mirroring the paper's flow (select once on
	// the calibration config, project everywhere).
	w1 := w
	w1.Cluster = cluster(1)
	calib, err := lab.Run(w1, cfg)
	if err != nil {
		return ScaleOutResult{}, err
	}
	recs, err := SLRecords(calib, 0)
	if err != nil {
		return ScaleOutResult{}, err
	}
	sel, err := core.Select(recs, opts)
	if err != nil {
		return ScaleOutResult{}, err
	}

	res := ScaleOutResult{
		Network:   w.Name,
		Topology:  cluster(2).Topology,
		LinkGBps:  cluster(2).LinkGBps,
		SeqPoints: len(sel.Points),
	}
	// Speedup and efficiency are always relative to the 1-GPU
	// calibration run, whether or not 1 is among the swept counts.
	baseTput := calib.Throughput()
	for _, n := range counts {
		wn := w
		wn.Cluster = cluster(n)
		run, err := lab.Run(wn, cfg)
		if err != nil {
			return ScaleOutResult{}, err
		}

		// Equation 1 on the cluster: per-SL step times (shard compute +
		// exposed all-reduce) weighted by the calibration selection.
		stepBySL := make(map[int]float64, len(run.BySL))
		for sl, p := range run.BySL {
			stepBySL[sl] = p.TimeUS
		}
		proj, err := core.ProjectTotal(sel.Points, stepBySL)
		if err != nil {
			return ScaleOutResult{}, err
		}
		actual, err := run.EpochTrainUS(0)
		if err != nil {
			return ScaleOutResult{}, err
		}

		row := ScaleOutRow{
			GPUs:          n,
			ShardBatch:    wn.Cluster.ShardBatch(w.Batch),
			ThroughputSPS: run.Throughput(),
			ProjTrainUS:   proj,
			ActualTrainUS: actual,
		}
		if actual > 0 {
			row.ProjErrPct = math.Abs(proj-actual) / actual * 100
		}
		if run.TrainUS > 0 {
			row.CommSharePct = run.CommUS / run.TrainUS * 100
		}
		if baseTput > 0 {
			row.SpeedupX = row.ThroughputSPS / baseTput
			row.EfficiencyPct = row.SpeedupX / float64(n) * 100
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// scaleOutColumns declares the scaling curve's table and CSV.
var scaleOutColumns = []column[ScaleOutRow]{
	intCol("gpus", "gpus", strconv.Itoa, func(r ScaleOutRow) int { return r.GPUs }),
	intCol("shard", "shard_batch", strconv.Itoa, func(r ScaleOutRow) int { return r.ShardBatch }),
	floatCol("samples/s", "throughput_sps", fixed("%.1f"), func(r ScaleOutRow) float64 { return r.ThroughputSPS }),
	floatCol("speedup", "speedup_x", fixed("%.2fx"), func(r ScaleOutRow) float64 { return r.SpeedupX }),
	floatCol("efficiency", "efficiency_pct", report.Pct, func(r ScaleOutRow) float64 { return r.EfficiencyPct }),
	floatCol("comm share", "comm_share_pct", report.Pct, func(r ScaleOutRow) float64 { return r.CommSharePct }),
	floatCol("", "proj_train_us", nil, func(r ScaleOutRow) float64 { return r.ProjTrainUS }),
	floatCol("", "actual_train_us", nil, func(r ScaleOutRow) float64 { return r.ActualTrainUS }),
	floatCol("proj err", "proj_err_pct", report.Pct, func(r ScaleOutRow) float64 { return r.ProjErrPct }),
}

// Render formats the scaling curve.
func (r ScaleOutResult) Render() string {
	return textTable(fmt.Sprintf("Scale-out — %s: data-parallel scaling over %s @ %g GB/s (%d SeqPoints)",
		r.Network, r.Topology, r.LinkGBps, r.SeqPoints), scaleOutColumns, r.Rows)
}

// CSV renders the scaling curve for external plotting.
func (r ScaleOutResult) CSV() string { return csvTable(scaleOutColumns, r.Rows) }

// ScaleOutGPUCounts is the default sweep: the cluster sizes of the
// acceptance evaluation.
func ScaleOutGPUCounts() []int { return []int{1, 2, 4, 8} }
