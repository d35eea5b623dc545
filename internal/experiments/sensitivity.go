package experiments

import (
	"fmt"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
)

// SensitivityCurve is the throughput uplift of iterations at each
// sequence length when moving from one hardware config to the
// calibration config: one line of the paper's Fig. 13 (GNMT) or Fig. 14
// (DS2).
type SensitivityCurve struct {
	// Pair names the transition, e.g. "#2 -> #1".
	Pair string
	// SeqLens and UpliftPct are the curve's samples.
	SeqLens   []int
	UpliftPct []float64
}

// Range returns the minimum and maximum uplift along the curve.
func (c SensitivityCurve) Range() (lo, hi float64) {
	if len(c.UpliftPct) == 0 {
		return 0, 0
	}
	lo, hi = c.UpliftPct[0], c.UpliftPct[0]
	for _, u := range c.UpliftPct[1:] {
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	return lo, hi
}

// SpreadPP is the uplift variation along the curve in percentage points
// (the paper observes up to ~45 pp for DS2, ~30 pp for GNMT).
func (c SensitivityCurve) SpreadPP() float64 {
	lo, hi := c.Range()
	return hi - lo
}

// SensitivityResult holds the per-SL sensitivity curves of one workload
// for every non-calibration config.
type SensitivityResult struct {
	Network string
	Curves  []SensitivityCurve
	// PriorBand is the SL range the `prior` baseline's contiguous
	// sampling window covers on this workload's first epoch — the
	// region marked O1 in the paper's Fig. 14. Prior's speedup
	// projections fail exactly for configs whose curve is not flat over
	// this band.
	PriorBandLo, PriorBandHi int
}

// Sensitivity computes uplift-vs-SL curves from config cfgs[1:] to
// cfgs[0], sampling at most maxPoints sequence lengths.
func Sensitivity(lab *Lab, w Workload, cfgs []gpusim.Config, maxPoints int) (SensitivityResult, error) {
	if len(cfgs) < 2 {
		return SensitivityResult{}, fmt.Errorf("experiments: sensitivity needs >= 2 configs")
	}
	runs, err := lab.RunAll(w, cfgs)
	if err != nil {
		return SensitivityResult{}, err
	}
	base := runs[cfgs[0].Name]
	sls := spreadSLs(base.UniqueSLs(), maxPoints)

	res := SensitivityResult{Network: w.Name}
	for _, cfg := range cfgs[1:] {
		run := runs[cfg.Name]
		curve := SensitivityCurve{Pair: fmt.Sprintf("%s -> %s", cfg.Name, cfgs[0].Name)}
		for _, sl := range sls {
			tgt := run.BySL[sl].TimeUS
			ref := base.BySL[sl].TimeUS
			if ref <= 0 {
				return SensitivityResult{}, fmt.Errorf("experiments: zero iteration time at SL %d", sl)
			}
			// Throughput uplift of #1 over cfg at this SL equals the
			// runtime ratio minus one.
			curve.SeqLens = append(curve.SeqLens, sl)
			curve.UpliftPct = append(curve.UpliftPct, (tgt/ref-1)*100)
		}
		res.Curves = append(res.Curves, curve)
	}

	// Locate prior's sampling band on the first epoch.
	epochSLs, err := base.EpochSLs(0)
	if err != nil {
		return SensitivityResult{}, err
	}
	warmup := PriorWarmupIters
	if warmup+50 > len(epochSLs) {
		warmup = 0
	}
	window := epochSLs[warmup:min(warmup+50, len(epochSLs))]
	res.PriorBandLo, res.PriorBandHi = window[0], window[0]
	for _, sl := range window {
		if sl < res.PriorBandLo {
			res.PriorBandLo = sl
		}
		if sl > res.PriorBandHi {
			res.PriorBandHi = sl
		}
	}
	return res, nil
}

// Render formats the curves as a seqlen x pair matrix plus per-curve
// spreads.
func (r SensitivityResult) Render() string {
	if len(r.Curves) == 0 {
		return ""
	}
	headers := []string{"seqlen"}
	for _, c := range r.Curves {
		headers = append(headers, c.Pair)
	}
	t := report.NewTable(
		fmt.Sprintf("Figs 13/14 — %s: throughput uplift vs sequence length", r.Network),
		headers...).AlignNumeric()
	for i := range r.Curves[0].SeqLens {
		row := []string{fmt.Sprintf("%d", r.Curves[0].SeqLens[i])}
		for _, c := range r.Curves {
			row = append(row, report.Pct(c.UpliftPct[i]))
		}
		t.AddStringRow(row...)
	}
	out := t.String()
	for _, c := range r.Curves {
		out += fmt.Sprintf("spread %s: %.1f pp\n", c.Pair, c.SpreadPP())
	}
	out += fmt.Sprintf("prior sampling band (O1): SL %d-%d\n", r.PriorBandLo, r.PriorBandHi)
	return out
}
