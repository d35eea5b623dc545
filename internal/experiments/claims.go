package experiments

import (
	"fmt"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
)

// Claim is one verifiable assertion from the paper's evaluation. Eval
// regenerates the experiments behind it on s and reports whether the
// claim holds, with a one-line detail of the measured quantities.
type Claim struct {
	ID   string
	Text string
	Eval func(s *Suite) (ok bool, detail string, err error)
}

// Claims returns the qualitative claims the paper's evaluation rests
// on, in paper order. cmd/papercheck prints their verdicts; the
// repository-root golden test asserts every one of them.
func Claims() []Claim {
	return []Claim{
		{
			ID:   "fig3",
			Text: "CNN iterations homogeneous, SQNN iterations heterogeneous",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := Fig3(s.Lab, s.GNMT, 12, s.Calib())
				if err != nil {
					return false, "", err
				}
				return r.CNNSpreadPct < 0.1 && r.RNNSpreadPct > 20,
					fmt.Sprintf("cnn %.1f%%, sqnn %.1f%%", r.CNNSpreadPct, r.RNNSpreadPct), nil
			},
		},
		{
			ID:   "fig4",
			Text: "architectural counters vary across iterations by tens of percent",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := Fig4(s.Lab, s.Workloads(), 4, s.Calib())
				if err != nil {
					return false, "", err
				}
				var max float64
				for _, row := range r.Rows {
					for _, sp := range row.SpreadPct {
						if sp > max {
							max = sp
						}
					}
				}
				return max > 20, fmt.Sprintf("max spread %.0f%%", max), nil
			},
		},
		{
			ID:   "table1",
			Text: "classifier GEMM has fixed M,K and N proportional to SL",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := TableI(s.GNMT.Model, s.GNMT.Batch, 94, 9)
				if err != nil {
					return false, "", err
				}
				a := r.Rows[0]
				return a.M == 36549 && a.K == 1024 && a.N1 == 6016 && a.N2 == 576,
					fmt.Sprintf("%dx%d, N %d/%d", a.M, a.K, a.N1, a.N2), nil
			},
		},
		{
			ID:   "fig5",
			Text: "distant-SL iterations run up to ~20% exclusive kernels; nearby SLs few",
			Eval: func(s *Suite) (bool, string, error) {
				far, err := Fig5(s.Lab, s.DS2, s.Calib(), [][2]int{{150, 350}})
				if err != nil {
					return false, "", err
				}
				near, err := Fig5(s.Lab, s.DS2, s.Calib(), [][2]int{{300, 320}})
				if err != nil {
					return false, "", err
				}
				f, n := far.Pairs[0].ExclusivePct(), near.Pairs[0].ExclusivePct()
				return f >= 10 && f <= 40 && n < f,
					fmt.Sprintf("far %.0f%%, near %.0f%%", f, n), nil
			},
		},
		{
			ID:   "fig7",
			Text: "DS2 SL histogram unimodal-skewed; GNMT long-tailed; many unique SLs",
			Eval: func(s *Suite) (bool, string, error) {
				ds2, err := Fig7(s.Lab, s.DS2, s.Calib(), 10)
				if err != nil {
					return false, "", err
				}
				gnmt, err := Fig7(s.Lab, s.GNMT, s.Calib(), 10)
				if err != nil {
					return false, "", err
				}
				ok := float64(ds2.UniqueSLs) > 0.3*float64(ds2.Iterations) &&
					gnmt.MeanSL > gnmt.MedianSL
				return ok, fmt.Sprintf("ds2 %d/%d unique, gnmt mean %.0f > median %.0f",
					ds2.UniqueSLs, ds2.Iterations, gnmt.MeanSL, gnmt.MedianSL), nil
			},
		},
		{
			ID:   "fig8",
			Text: "nearby SLs have near-identical kernel distributions",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := Fig6(s.Lab, s.GNMT, s.Calib(), []int{87, 89, 192, 197})
				if err != nil {
					return false, "", err
				}
				if len(r.Columns) < 3 {
					return false, "too few distinct SLs", nil
				}
				near := r.PairShiftPct(0, 1)
				far := r.PairShiftPct(0, len(r.Columns)-1)
				return near < 1 && near < far,
					fmt.Sprintf("near %.2f pp, far %.2f pp", near, far), nil
			},
		},
		{
			ID:   "fig9",
			Text: "iteration runtime near-linear in SL (both networks)",
			Eval: func(s *Suite) (bool, string, error) {
				g, err := Fig9(s.Lab, s.GNMT, s.Calib())
				if err != nil {
					return false, "", err
				}
				d, err := Fig9(s.Lab, s.DS2, s.Calib())
				if err != nil {
					return false, "", err
				}
				return g.Fit.R2 > 0.99 && d.Fit.R2 > 0.99,
					fmt.Sprintf("R² %.4f / %.4f", g.Fit.R2, d.Fit.R2), nil
			},
		},
		{
			ID:   "fig11-12",
			Text: "SeqPoint projects total training time under ~1% and beats every baseline",
			Eval: func(s *Suite) (bool, string, error) {
				for _, w := range s.Workloads() {
					r, err := TimeProjection(s.Lab, w, s.Configs, s.Opts)
					if err != nil {
						return false, "", err
					}
					sp := r.GeomeanPct[core.MethodSeqPoint]
					if sp > 1 {
						return false, fmt.Sprintf("%s seqpoint %.2f%%", w.Name, sp), nil
					}
					for _, m := range core.AllMethods() {
						if m != core.MethodSeqPoint && r.GeomeanPct[m] < sp {
							return false, fmt.Sprintf("%s %s beats seqpoint", w.Name, m), nil
						}
					}
				}
				return true, "both networks, all baselines", nil
			},
		},
		{
			ID:   "fig13-14",
			Text: "per-SL speedups vary across configs (narrow-band sampling is risky)",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := Sensitivity(s.Lab, s.GNMT, s.Configs, 12)
				if err != nil {
					return false, "", err
				}
				var max float64
				for _, c := range r.Curves {
					if sp := c.SpreadPP(); sp > max {
						max = sp
					}
				}
				return max > 10, fmt.Sprintf("max spread %.0f pp", max), nil
			},
		},
		{
			ID:   "fig15-16",
			Text: "SeqPoint projects speedups within ~1pp geomean on both networks",
			Eval: func(s *Suite) (bool, string, error) {
				var detail string
				for _, w := range s.Workloads() {
					r, err := SpeedupProjection(s.Lab, w, s.Configs, s.Opts)
					if err != nil {
						return false, "", err
					}
					sp := r.GeomeanPP[core.MethodSeqPoint]
					detail += fmt.Sprintf("%s %.2fpp ", w.Name, sp)
					if sp > 1.5 {
						return false, detail, nil
					}
				}
				return true, detail, nil
			},
		},
		{
			ID:   "sec6f",
			Text: "profiling cost drops by orders of magnitude; fewer iterations than prior",
			Eval: func(s *Suite) (bool, string, error) {
				for _, w := range s.Workloads() {
					r, err := Cost(s.Lab, w, s.Calib(), s.Opts)
					if err != nil {
						return false, "", err
					}
					if r.SerialSpeedup < 20 || r.ParallelSpeedup < 100 || r.IterRatioVsPrior < 2 {
						return false, fmt.Sprintf("%s serial %.0fx parallel %.0fx vs-prior %.1fx",
							w.Name, r.SerialSpeedup, r.ParallelSpeedup, r.IterRatioVsPrior), nil
					}
				}
				return true, "both networks", nil
			},
		},
		{
			ID:   "sec7c",
			Text: "simple binning performs as well as k-means (scalar and profile-vector)",
			Eval: func(s *Suite) (bool, string, error) {
				for _, w := range s.Workloads() {
					r, err := ProfileAblation(s.Lab, w, s.Configs, s.Opts, w.Seed)
					if err != nil {
						return false, "", err
					}
					if r.BinningErrPct > 1 || r.RuntimeKMeansErrPct > 1 || r.ProfileKMeansErrPct > 1 {
						return false, fmt.Sprintf("%s errors %.2f/%.2f/%.2f%%", w.Name,
							r.BinningErrPct, r.RuntimeKMeansErrPct, r.ProfileKMeansErrPct), nil
					}
				}
				return true, "all schemes sub-percent", nil
			},
		},
		{
			ID:   "sec5c",
			Text: "any SL-varying statistic drives an accurate selection",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := StatChoice(s.Lab, s.GNMT, s.Configs, s.Opts)
				if err != nil {
					return false, "", err
				}
				ok, detail := r.allWithin(2)
				return ok, detail, nil
			},
		},
		{
			ID:   "sec5a",
			Text: "smaller batch sizes produce more unique sequence lengths",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := BatchSize(s.Lab, s.GNMT, s.Calib(), []int{16, 64}, s.Opts)
				if err != nil {
					return false, "", err
				}
				small, large := r.Rows[0], r.Rows[1]
				return small.UniqueSLs > large.UniqueSLs,
					fmt.Sprintf("batch 16: %d SLs, batch 64: %d SLs", small.UniqueSLs, large.UniqueSLs), nil
			},
		},
		{
			ID:   "sec6f-scale",
			Text: "larger datasets with similar SL ranges yield larger profiling speedups",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := DatasetScale(s.Lab, s.DS2, dataset.LibriSpeech500h(s.DS2.Seed),
					s.Calib(), s.Opts)
				if err != nil {
					return false, "", err
				}
				small, large := r.Rows[0], r.Rows[1]
				return large.SerialSpeedup > small.SerialSpeedup,
					fmt.Sprintf("100h %.0fx -> 500h %.0fx serial", small.SerialSpeedup, large.SerialSpeedup), nil
			},
		},
		{
			ID:   "sec7e",
			Text: "the methodology characterizes inference runs too",
			Eval: func(s *Suite) (bool, string, error) {
				r, err := Inference(s.DS2, s.Configs[0], s.Configs[1], s.DS2.Batch, s.Opts)
				if err != nil {
					return false, "", err
				}
				return r.CrossErrPct < 2 && r.Points < r.UniqueSLs,
					fmt.Sprintf("%d of %d SLs, cross error %.2f%%", r.Points, r.UniqueSLs, r.CrossErrPct), nil
			},
		},
	}
}
