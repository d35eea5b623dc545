package experiments

import (
	"fmt"

	"seqpoint/internal/report"
)

// CSV exporters for the figure-backing data series, for external
// plotting tools. Each returns RFC-4180 CSV with a header row; the
// columns mirror the paper's plot axes.

// CSV renders Fig 3's normalized per-iteration runtimes.
func (r Fig3Result) CSV() string {
	t := report.NewTable("", "iteration", "cnn_normalized", "sqnn_normalized")
	for i := range r.CNN {
		t.AddStringRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.6f", r.CNN[i]), fmt.Sprintf("%.6f", r.RNN[i]))
	}
	return t.CSV()
}

// CSV renders Fig 7's histogram bins.
func (r Fig7Result) CSV() string {
	t := report.NewTable("", "bin_lo", "bin_hi", "iterations")
	h := r.Histogram
	for i, c := range h.Counts {
		t.AddStringRow(
			fmt.Sprintf("%d", h.Edges[i]),
			fmt.Sprintf("%d", h.Edges[i+1]-1),
			fmt.Sprintf("%d", c))
	}
	return t.CSV()
}

// CSV renders Fig 9's runtime-vs-SL points.
func (r Fig9Result) CSV() string {
	t := report.NewTable("", "seqlen", "iter_time_us")
	for _, p := range r.Points {
		t.AddStringRow(fmt.Sprintf("%d", p.SeqLen), fmt.Sprintf("%.3f", p.TimeUS))
	}
	return t.CSV()
}

// CSV renders the Figs 11/12 method x config error matrix.
func (r TimeProjectionResult) CSV() string {
	headers := append([]string{"method"}, r.Configs...)
	headers = append(headers, "geomean")
	t := report.NewTable("", headers...)
	for _, m := range r.Methods {
		row := []string{string(m)}
		for _, cfg := range r.Configs {
			row = append(row, fmt.Sprintf("%.6f", r.ErrorPct[m][cfg]))
		}
		row = append(row, fmt.Sprintf("%.6f", r.GeomeanPct[m]))
		t.AddStringRow(row...)
	}
	return t.CSV()
}

// CSV renders the Figs 13/14 uplift-vs-SL curves, one column per
// config pair.
func (r SensitivityResult) CSV() string {
	if len(r.Curves) == 0 {
		return ""
	}
	headers := []string{"seqlen"}
	for _, c := range r.Curves {
		headers = append(headers, c.Pair)
	}
	t := report.NewTable("", headers...)
	for i := range r.Curves[0].SeqLens {
		row := []string{fmt.Sprintf("%d", r.Curves[0].SeqLens[i])}
		for _, c := range r.Curves {
			row = append(row, fmt.Sprintf("%.6f", c.UpliftPct[i]))
		}
		t.AddStringRow(row...)
	}
	return t.CSV()
}

// CSV renders the Figs 15/16 method x pair error matrix, with the
// actual uplift as the first data row.
func (r SpeedupProjectionResult) CSV() string {
	headers := append([]string{"method"}, r.Pairs...)
	headers = append(headers, "geomean")
	t := report.NewTable("", headers...)
	actual := []string{"actual_uplift_pct"}
	for _, p := range r.Pairs {
		actual = append(actual, fmt.Sprintf("%.6f", r.ActualUpliftPct[p]))
	}
	actual = append(actual, "")
	t.AddStringRow(actual...)
	for _, m := range r.Methods {
		row := []string{string(m)}
		for _, p := range r.Pairs {
			row = append(row, fmt.Sprintf("%.6f", r.ErrorPP[m][p]))
		}
		row = append(row, fmt.Sprintf("%.6f", r.GeomeanPP[m]))
		t.AddStringRow(row...)
	}
	return t.CSV()
}
