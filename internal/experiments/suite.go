package experiments

import (
	"fmt"
	"io"
	"slices"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/report"
)

// Suite bundles everything needed to regenerate the paper's evaluation:
// the two SQNN workloads, the Table II hardware configurations, and the
// selection options.
type Suite struct {
	Lab     *Lab
	DS2     Workload
	GNMT    Workload
	Configs []gpusim.Config
	Opts    core.Options
	// BaseCluster is the interconnect used by the scale-out experiment
	// (its GPUs field is overridden per sweep point); ScaleGPUs the
	// cluster sizes swept.
	BaseCluster gpusim.ClusterConfig
	ScaleGPUs   []int
}

// NewSuite builds the default paper-evaluation suite.
func NewSuite(seed int64) *Suite {
	return &Suite{
		Lab:         NewLab(),
		DS2:         DS2Workload(seed),
		GNMT:        GNMTWorkload(seed),
		Configs:     gpusim.TableII(),
		Opts:        SelectOptions(),
		BaseCluster: gpusim.DefaultCluster(2),
		ScaleGPUs:   ScaleOutGPUCounts(),
	}
}

// Workloads returns the two SQNN workloads in paper order (DS2, GNMT).
func (s *Suite) Workloads() []Workload { return []Workload{s.DS2, s.GNMT} }

// Calib returns the calibration configuration (config #1).
func (s *Suite) Calib() gpusim.Config { return s.Configs[0] }

// Paper-specific sequence lengths used by the characterization figures.
// GNMT's Fig. 8 SLs are quoted in the paper (87, 89, 192, 197); the
// Fig. 5/6 pairs contrast a short and a long iteration.
var (
	fig5GNMTPairs = [][2]int{{40, 160}, {80, 200}}
	fig5DS2Pairs  = [][2]int{{150, 350}, {300, 450}}
	fig6GNMTSLs   = []int{3, 180}
	fig6DS2SLs    = []int{70, 450}
	fig8GNMTSLs   = []int{87, 89, 192, 197}
)

// RenderTableII formats the hardware configurations.
func RenderTableII(cfgs []gpusim.Config) string {
	t := report.NewTable("Table II — hardware configurations",
		"config", "GCLK", "#CU", "L1 $", "L2 $").AlignNumeric()
	for _, c := range cfgs {
		t.AddStringRow(c.Name,
			fmt.Sprintf("%.3g GHz", c.ClockGHz),
			fmt.Sprintf("%d", c.NumCUs),
			fmt.Sprintf("%d KB", c.L1KBPerCU),
			fmt.Sprintf("%d MB", c.L2MB))
	}
	return t.String()
}

// A section is one heading of the suite and the body under it.
type section struct {
	title string
	body  body
}

// A body renders a section's text and files the figure CSVs it backs
// into csvs, keyed by file name.
type body func(csvs map[string]string) (string, error)

// RunAll runs every experiment of the paper's evaluation in figure
// order, writing each section to w as it completes, and returns the
// figure-backing CSVs keyed by file name (e.g. "fig09_gnmt.csv"). It
// stops at the first error.
func (s *Suite) RunAll(w io.Writer) (map[string]string, error) {
	csvs := make(map[string]string)
	for _, sec := range s.sections() {
		fmt.Fprint(w, report.Section(sec.title))
		out, err := sec.body(csvs)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", sec.title, err)
		}
		fmt.Fprint(w, out)
	}
	return csvs, nil
}

// sections lists the suite in print order. Each section keeps its
// figure's workload order: Table I and Figs 5, 6, 9 and 13/14 put GNMT
// first, the rest DS2.
func (s *Suite) sections() []section {
	calib := s.Calib()
	ds2First, gnmtFirst, gnmt := s.Workloads(), []Workload{s.GNMT, s.DS2}, []Workload{s.GNMT}
	return slices.Concat([]section{
		{"Table II", func(map[string]string) (string, error) { return RenderTableII(s.Configs), nil }},
		{"Fig 3", func(csvs map[string]string) (string, error) {
			r, err := Fig3(s.Lab, s.GNMT, 12, calib)
			if err != nil {
				return "", err
			}
			csvs["fig03_cnn_vs_sqnn.csv"] = r.CSV()
			return r.Render(), nil
		}},
		{"Fig 4", func(map[string]string) (string, error) {
			r, err := Fig4(s.Lab, ds2First, 4, calib)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Table I", each(gnmtFirst, func(w Workload) (TableIResult, error) {
			sls := byNetwork(s, w, [2]int{94, 9}, [2]int{400, 120})
			return TableI(w.Model, w.Batch, sls[0], sls[1])
		})},
		{"Fig 5", each(gnmtFirst, func(w Workload) (Fig5Result, error) {
			return Fig5(s.Lab, w, calib, byNetwork(s, w, fig5GNMTPairs, fig5DS2Pairs))
		})},
		{"Fig 6", each(gnmtFirst, func(w Workload) (Fig6Result, error) {
			return Fig6(s.Lab, w, calib, byNetwork(s, w, fig6GNMTSLs, fig6DS2SLs))
		})},
		{"Fig 7", eachCSV(ds2First, "fig07", func(w Workload) (Fig7Result, error) { return Fig7(s.Lab, w, calib, 10) })},
		{"Fig 8", each(gnmt, func(w Workload) (Fig6Result, error) { return Fig6(s.Lab, w, calib, fig8GNMTSLs) })},
		{"Fig 9", eachCSV(gnmtFirst, "fig09", func(w Workload) (Fig9Result, error) { return Fig9(s.Lab, w, calib) })},
	}, split("Figs 11/12", ds2First, "fig11_12", func(w Workload) (TimeProjectionResult, error) {
		return TimeProjection(s.Lab, w, s.Configs, s.Opts)
	}), split("Figs 13/14", gnmtFirst, "fig13_14", func(w Workload) (sensitivityFigure, error) {
		table, err := Sensitivity(s.Lab, w, s.Configs, 12)
		if err != nil {
			return sensitivityFigure{}, err
		}
		curves, err := Sensitivity(s.Lab, w, s.Configs, 40)
		return sensitivityFigure{table, curves}, err
	}), split("Figs 15/16", ds2First, "fig15_16", func(w Workload) (SpeedupProjectionResult, error) {
		return SpeedupProjection(s.Lab, w, s.Configs, s.Opts)
	}), []section{
		{"Section VI-F", each(ds2First, func(w Workload) (CostResult, error) { return Cost(s.Lab, w, calib, s.Opts) })},
		{"Section VII-C", each(ds2First, func(w Workload) (AblationResult, error) {
			return Ablation(s.Lab, w, s.Configs, s.Opts, w.Seed)
		})},
		{"Section VII-C (extended)", each(ds2First, func(w Workload) (ProfileAblationResult, error) {
			return ProfileAblation(s.Lab, w, s.Configs, s.Opts, w.Seed)
		})},
		{"Section V-C (statistic choice)", each(ds2First, func(w Workload) (StatChoiceResult, error) {
			return StatChoice(s.Lab, w, s.Configs, s.Opts)
		})},
		{"Section VII-E (inference)", each(ds2First, func(w Workload) (InferenceResult, error) {
			return Inference(w, s.Configs[0], s.Configs[1], w.Batch, s.Opts)
		})},
		{"Section V-A (batch size)", each(gnmt, func(w Workload) (BatchSizeResult, error) {
			return BatchSize(s.Lab, w, calib, []int{16, 32, 64, 128}, s.Opts)
		})},
		{"Section V-C (threshold sweep)", each(ds2First, func(w Workload) (ThresholdResult, error) {
			return ThresholdSweep(s.Lab, w, calib, []float64{5, 1, 0.5, 0.1, 0.01})
		})},
		{"Roofline decomposition", each(ds2First, func(w Workload) (BoundSharesResult, error) { return BoundShares(s.Lab, w, calib, 6) })},
		{"Scale-out (multi-GPU data parallelism)", eachCSV(ds2First, "scaleout", func(w Workload) (ScaleOutResult, error) {
			return ScaleOut(s.Lab, w, calib, s.BaseCluster, s.ScaleGPUs, s.Opts)
		})},
		{"Online serving (load sweep)", eachCSV(ds2First, "loadsweep", func(w Workload) (LoadSweepResult, error) {
			return LoadSweep(s.Lab, w, calib, DefaultServeRequests, LoadSweepFactors())
		})},
		{"Fleet serving (replicas × routing)", eachCSV(ds2First, "fleetsweep", func(w Workload) (FleetSweepResult, error) {
			return FleetSweep(s.Lab, w, calib, DefaultServeRequests,
				FleetSweepReplicaCounts(), FleetSweepRoutings(), DefaultFleetLoadFactor)
		})},
		{"Memory-aware serving (KV capacity sweep)", eachCSV(ds2First, "kvsweep", func(w Workload) (KVSweepResult, error) {
			return KVSweep(s.Lab, w, calib, DefaultServeRequests, KVSweepCapacitiesGB(), DefaultKVLoadFactor)
		})},
		{"Capacity planner (SLO → minimal fleet)", eachCSV(ds2First, "plansweep", func(w Workload) (PlanSweepResult, error) {
			return PlanSweep(s.Lab, w, calib, DefaultServeRequests, PlanSweepBudgets())
		})},
		{"Multi-tenant serving (FIFO starvation vs weighted-fair batching)", eachCSV(ds2First, "tenantsweep",
			func(w Workload) (TenantSweepResult, error) {
				return TenantSweep(s.Lab, w, calib, DefaultServeRequests, DefaultTenantLoadFactor)
			})},
		{"Section VI-F (dataset scaling)", each(ds2First, func(w Workload) (DatasetScaleResult, error) {
			// Only the larger corpus this workload scales to is generated.
			larger := byNetwork(s, w, dataset.WMT16, dataset.LibriSpeech500h)
			return DatasetScale(s.Lab, w, larger(w.Seed), calib, s.Opts)
		})},
	})
}

// byNetwork returns gnmt for the suite's GNMT workload and ds2 for the
// other: the paper quotes its characterization SLs per network.
func byNetwork[T any](s *Suite, w Workload, gnmt, ds2 T) T {
	if w.Name == s.GNMT.Name {
		return gnmt
	}
	return ds2
}

// each renders exp's result on every workload of ws, in order.
func each[R interface{ Render() string }](ws []Workload, exp func(Workload) (R, error)) body {
	return func(map[string]string) (string, error) {
		var out string
		for _, w := range ws {
			r, err := exp(w)
			if err != nil {
				return "", err
			}
			out += r.Render()
		}
		return out, nil
	}
}

// plotted is a result that also backs a figure CSV.
type plotted interface {
	Render() string
	CSV() string
}

// eachCSV is each that also files every result's CSV as
// "<prefix>_<workload>.csv".
func eachCSV[R plotted](ws []Workload, prefix string, exp func(Workload) (R, error)) body {
	return func(csvs map[string]string) (string, error) {
		return each(ws, func(w Workload) (R, error) {
			r, err := exp(w)
			if err == nil {
				csvs[prefix+"_"+w.Name+".csv"] = r.CSV()
			}
			return r, err
		})(csvs)
	}
}

// split gives every workload of ws its own eachCSV section, titled
// "<title> (<workload>)".
func split[R plotted](title string, ws []Workload, prefix string, exp func(Workload) (R, error)) []section {
	secs := make([]section, len(ws))
	for i, w := range ws {
		secs[i] = section{fmt.Sprintf("%s (%s)", title, w.Name), eachCSV([]Workload{w}, prefix, exp)}
	}
	return secs
}

// sensitivityFigure is one Figs 13/14 panel: the table samples 12 SLs
// of the curves, the CSV 40.
type sensitivityFigure struct{ table, curves SensitivityResult }

func (f sensitivityFigure) Render() string { return f.table.Render() }
func (f sensitivityFigure) CSV() string    { return f.curves.CSV() }
