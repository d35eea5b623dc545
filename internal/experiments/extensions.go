package experiments

import (
	"fmt"

	"seqpoint/internal/core"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
	"seqpoint/internal/stats"
	"seqpoint/internal/trainer"
)

// This file implements the paper's discussion-section extensions:
// Section VII-E (the methodology applies to inference) and the Section
// V-C remark that any statistic that varies with SL can drive the
// selection, plus the multi-dimensional variant of the Section VII-C
// clustering ablation.

// InferenceResult applies the SeqPoint methodology to inference
// characterization (Section VII-E): representative request lengths are
// selected from a serving run on the calibration config and used to
// project serving time on a different config.
type InferenceResult struct {
	Network string
	// Batches and UniqueSLs describe the serving run.
	Batches, UniqueSLs int
	// P50, P90, P99 are per-batch latency percentiles on the
	// calibration config (microseconds) — the spread SeqPoint's SL
	// insight explains.
	P50, P90, P99 float64
	// Points is the number of representative request lengths selected.
	Points int
	// SelfErrPct is the calibration-config self-projection error;
	// CrossErrPct the projection error of total serving time on the
	// target config.
	SelfErrPct, CrossErrPct float64
	// TargetConfig names the projected configuration.
	TargetConfig string
}

// Inference characterizes a serving run of w's model over its training
// corpus lengths (requests look like training inputs) and projects
// cross-config serving time from representative request lengths.
func Inference(w Workload, calib, target gpusim.Config, batch int, opts core.Options) (InferenceResult, error) {
	spec := trainer.InferenceSpec{
		Model:    w.Model,
		Requests: w.Train,
		Batch:    batch,
		Seed:     w.Seed,
	}
	calRun, err := trainer.SimulateInference(spec, calib)
	if err != nil {
		return InferenceResult{}, err
	}

	sums := calRun.SLSummaries()
	recs := make([]core.SLRecord, len(sums))
	for i, s := range sums {
		recs[i] = core.SLRecord{SeqLen: s.SeqLen, Freq: s.Count, Stat: s.IterTimeUS}
	}
	sel, err := core.Select(recs, opts)
	if err != nil {
		return InferenceResult{}, err
	}

	tgtRun, err := trainer.SimulateInference(spec, target)
	if err != nil {
		return InferenceResult{}, err
	}
	proj, err := core.ProjectTotal(sel.Points, tgtRun.LatencyBySL)
	if err != nil {
		return InferenceResult{}, err
	}
	crossErr, err := stats.PercentError(proj, tgtRun.TotalUS)
	if err != nil {
		return InferenceResult{}, err
	}

	p50, p90, p99 := calRun.LatencyPercentiles()
	return InferenceResult{
		Network:      w.Name,
		Batches:      len(calRun.BatchSLs),
		UniqueSLs:    len(calRun.LatencyBySL),
		P50:          p50,
		P90:          p90,
		P99:          p99,
		Points:       len(sel.Points),
		SelfErrPct:   sel.ErrorPct,
		CrossErrPct:  crossErr,
		TargetConfig: target.Name,
	}, nil
}

// Render formats the inference characterization.
func (r InferenceResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Section VII-E — %s: inference characterization", r.Network),
		"quantity", "value").Align(1, report.AlignRight)
	t.AddStringRow("batches served", report.Count(r.Batches))
	t.AddStringRow("unique request SLs", report.Count(r.UniqueSLs))
	t.AddStringRow("latency p50/p90/p99",
		fmt.Sprintf("%s / %s / %s", report.US(r.P50), report.US(r.P90), report.US(r.P99)))
	t.AddStringRow("representative SLs", report.Count(r.Points))
	t.AddStringRow("self-projection error", report.Pct(r.SelfErrPct))
	t.AddStringRow(fmt.Sprintf("serving-time error on %s", r.TargetConfig), report.Pct(r.CrossErrPct))
	return t.String()
}

// StatChoiceResult verifies the Section V-C remark that the methodology
// "can use any other statistic that varies with SL": selections driven
// by different statistics all project total training time accurately.
type StatChoiceResult struct {
	Network string
	// ErrPctByStat maps each driving statistic to the cross-config
	// geomean error of its selection's time projection.
	ErrPctByStat map[string]float64
	// PointsByStat maps each statistic to its SeqPoint count.
	PointsByStat map[string]int
}

// statExtractors lists the alternative per-iteration statistics.
var statExtractors = []struct {
	name string
	get  func(run *trainer.Run, sl int) float64
}{
	{"runtime", func(r *trainer.Run, sl int) float64 { return r.BySL[sl].TimeUS }},
	{"valu-insts", func(r *trainer.Run, sl int) float64 { return r.BySL[sl].Counters.VALUInsts }},
	{"dram-reads", func(r *trainer.Run, sl int) float64 { return r.BySL[sl].Counters.LoadBytes }},
}

// StatChoice selects SeqPoints using each candidate statistic and
// measures the resulting runtime-projection accuracy across configs.
func StatChoice(lab *Lab, w Workload, cfgs []gpusim.Config, opts core.Options) (StatChoiceResult, error) {
	runs, err := lab.RunAll(w, cfgs)
	if err != nil {
		return StatChoiceResult{}, err
	}
	calib := runs[cfgs[0].Name]
	sums, err := calib.EpochSummary(0)
	if err != nil {
		return StatChoiceResult{}, err
	}

	res := StatChoiceResult{
		Network:      w.Name,
		ErrPctByStat: make(map[string]float64),
		PointsByStat: make(map[string]int),
	}
	for _, ext := range statExtractors {
		recs := make([]core.SLRecord, len(sums))
		for i, s := range sums {
			recs[i] = core.SLRecord{
				SeqLen: s.SeqLen,
				Freq:   s.Count,
				Stat:   ext.get(calib, s.SeqLen),
			}
		}
		sel, err := core.Select(recs, opts)
		if err != nil {
			return StatChoiceResult{}, fmt.Errorf("experiments: stat %s: %w", ext.name, err)
		}
		res.PointsByStat[ext.name] = len(sel.Points)

		// Regardless of the driving statistic, evaluate what matters:
		// projecting runtime across configurations from the chosen SLs
		// and weights.
		var errs []float64
		for _, cfg := range cfgs {
			run := runs[cfg.Name]
			proj, err := projectRunTrainUS(sel.Points, run)
			if err != nil {
				return StatChoiceResult{}, err
			}
			e, err := stats.PercentError(proj, run.TrainUS)
			if err != nil {
				return StatChoiceResult{}, err
			}
			errs = append(errs, nonZeroErr(e))
		}
		gm, err := stats.Geomean(errs)
		if err != nil {
			return StatChoiceResult{}, err
		}
		res.ErrPctByStat[ext.name] = gm
	}
	return res, nil
}

// allWithin reports whether every statistic's selection projects
// within maxErrPct. The detail lists each statistic's error in
// statExtractors order, through the first one that misses.
func (r StatChoiceResult) allWithin(maxErrPct float64) (bool, string) {
	var detail string
	for _, ext := range statExtractors {
		e := r.ErrPctByStat[ext.name]
		detail += fmt.Sprintf("%s %.2f%% ", ext.name, e)
		if e > maxErrPct {
			return false, detail
		}
	}
	return true, detail
}

// Render formats the statistic-choice ablation.
func (r StatChoiceResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Section V-C — %s: selection statistic ablation", r.Network),
		"statistic", "seqpoints", "time-projection geomean error").AlignNumeric()
	for _, ext := range statExtractors {
		t.AddStringRow(ext.name,
			fmt.Sprintf("%d", r.PointsByStat[ext.name]),
			report.Pct(r.ErrPctByStat[ext.name]))
	}
	return t.String()
}

// ProfileAblationResult extends the Section VII-C comparison with
// k-means over full multi-counter execution-profile vectors, the exact
// alternative the paper describes ("applied k-means clustering to
// execution profiles of all iterations").
type ProfileAblationResult struct {
	Network string
	K       int
	// Geomean cross-config time-projection errors per scheme.
	BinningErrPct, RuntimeKMeansErrPct, ProfileKMeansErrPct float64
}

// ProfileAblation compares contiguous binning, scalar-runtime k-means,
// and profile-vector k-means at the same k.
func ProfileAblation(lab *Lab, w Workload, cfgs []gpusim.Config, opts core.Options, seed int64) (ProfileAblationResult, error) {
	runs, err := lab.RunAll(w, cfgs)
	if err != nil {
		return ProfileAblationResult{}, err
	}
	calib := runs[cfgs[0].Name]
	recs, err := SLRecords(calib, 0)
	if err != nil {
		return ProfileAblationResult{}, err
	}

	binned, err := core.Select(recs, opts)
	if err != nil {
		return ProfileAblationResult{}, err
	}
	k := binned.Bins
	if k == 0 {
		k = len(binned.Points)
	}
	runtimeKM, err := core.SelectKMeans(recs, k, seed)
	if err != nil {
		return ProfileAblationResult{}, err
	}

	profiles := make(map[int][]float64, len(recs))
	for _, r := range recs {
		p := calib.BySL[r.SeqLen]
		profiles[r.SeqLen] = []float64{
			p.TimeUS,
			p.Counters.VALUInsts,
			p.Counters.LoadBytes,
			p.Counters.MemWriteStallCycles,
		}
	}
	profileKM, err := core.SelectKMeansProfiles(recs, profiles, k, seed)
	if err != nil {
		return ProfileAblationResult{}, err
	}

	res := ProfileAblationResult{Network: w.Name, K: k}
	if res.BinningErrPct, err = crossConfigGeomeanErr(binned, runs, cfgs); err != nil {
		return ProfileAblationResult{}, err
	}
	if res.RuntimeKMeansErrPct, err = crossConfigGeomeanErr(runtimeKM, runs, cfgs); err != nil {
		return ProfileAblationResult{}, err
	}
	if res.ProfileKMeansErrPct, err = crossConfigGeomeanErr(profileKM, runs, cfgs); err != nil {
		return ProfileAblationResult{}, err
	}
	return res, nil
}

// Render formats the three-way ablation.
func (r ProfileAblationResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Section VII-C (extended) — %s: clustering schemes (k=%d)", r.Network, r.K),
		"scheme", "cross-config geomean error").AlignNumeric()
	t.AddStringRow("contiguous SL binning", report.Pct(r.BinningErrPct))
	t.AddStringRow("k-means on runtimes", report.Pct(r.RuntimeKMeansErrPct))
	t.AddStringRow("k-means on profile vectors", report.Pct(r.ProfileKMeansErrPct))
	return t.String()
}
