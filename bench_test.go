package seqpoint_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment from the
// simulated substrate and reports the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` reproduces the entire
// evaluation and prints the numbers EXPERIMENTS.md records.
//
// The expensive inputs — full training simulations of DS2 and GNMT on
// all five Table II configurations — are computed once and shared by
// every benchmark through a lazily initialized suite.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
	"seqpoint/internal/engine"
	"seqpoint/internal/experiments"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
	"seqpoint/internal/tensor"
	"seqpoint/internal/trainer"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// bsuite returns the shared, fully-simulated evaluation suite.
func bsuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.DefaultSeed)
	})
	return suite
}

func BenchmarkFig03CNNvsRNN(b *testing.B) {
	s := bsuite(b)
	var res experiments.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig3(s.Lab, s.GNMT, 12, s.Calib())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CNNSpreadPct, "cnn-spread-%")
	b.ReportMetric(res.RNNSpreadPct, "rnn-spread-%")
}

func BenchmarkFig04ArchStats(b *testing.B) {
	s := bsuite(b)
	var res experiments.Fig4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig4(s.Lab, s.Workloads(), 4, s.Calib())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.SpreadPct[experiments.CounterVALUInsts], row.Network+"-valu-spread-%")
	}
}

func BenchmarkTable01GEMMDims(b *testing.B) {
	s := bsuite(b)
	var res experiments.TableIResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.TableI(s.GNMT.Model, s.GNMT.Batch, 94, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rows[0].N1), "gemm-a-n-sl1")
	b.ReportMetric(float64(res.Rows[0].N2), "gemm-a-n-sl2")
}

func BenchmarkFig05UniqueKernels(b *testing.B) {
	s := bsuite(b)
	var res experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig5(s.Lab, s.DS2, s.Calib(), [][2]int{{150, 350}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Pairs[0].ExclusivePct(), "exclusive-kernels-%")
}

func BenchmarkFig06KernelDist(b *testing.B) {
	s := bsuite(b)
	var res experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig6(s.Lab, s.GNMT, s.Calib(), []int{3, 180})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MaxGroupShiftPct(), "max-share-shift-pp")
}

func BenchmarkFig07SLHistograms(b *testing.B) {
	s := bsuite(b)
	var ds2, gnmt experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		if ds2, err = experiments.Fig7(s.Lab, s.DS2, s.Calib(), 10); err != nil {
			b.Fatal(err)
		}
		if gnmt, err = experiments.Fig7(s.Lab, s.GNMT, s.Calib(), 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds2.UniqueSLs), "ds2-unique-sls")
	b.ReportMetric(float64(gnmt.UniqueSLs), "gnmt-unique-sls")
}

func BenchmarkFig08NearbySLs(b *testing.B) {
	s := bsuite(b)
	var res experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig6(s.Lab, s.GNMT, s.Calib(), []int{87, 89, 192, 197})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PairShiftPct(0, 1), "nearby-shift-pp")
}

func BenchmarkFig09RuntimeVsSL(b *testing.B) {
	s := bsuite(b)
	var ds2, gnmt experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		if gnmt, err = experiments.Fig9(s.Lab, s.GNMT, s.Calib()); err != nil {
			b.Fatal(err)
		}
		if ds2, err = experiments.Fig9(s.Lab, s.DS2, s.Calib()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gnmt.Fit.R2, "gnmt-r2")
	b.ReportMetric(ds2.Fit.R2, "ds2-r2")
}

func benchTimeProjection(b *testing.B, w func(*experiments.Suite) experiments.Workload) {
	s := bsuite(b)
	var res experiments.TimeProjectionResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.TimeProjection(s.Lab, w(s), s.Configs, s.Opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeomeanPct[core.MethodSeqPoint], "seqpoint-geomean-%")
	b.ReportMetric(res.GeomeanPct[core.MethodPrior], "prior-geomean-%")
	b.ReportMetric(res.GeomeanPct[core.MethodWorst], "worst-geomean-%")
	b.ReportMetric(float64(res.SeqPointCount), "seqpoints")
}

func BenchmarkFig11DS2TimeProjection(b *testing.B) {
	benchTimeProjection(b, func(s *experiments.Suite) experiments.Workload { return s.DS2 })
}

func BenchmarkFig12GNMTTimeProjection(b *testing.B) {
	benchTimeProjection(b, func(s *experiments.Suite) experiments.Workload { return s.GNMT })
}

func benchSensitivity(b *testing.B, w func(*experiments.Suite) experiments.Workload) {
	s := bsuite(b)
	var res experiments.SensitivityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Sensitivity(s.Lab, w(s), s.Configs, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxSpread float64
	for _, c := range res.Curves {
		if sp := c.SpreadPP(); sp > maxSpread {
			maxSpread = sp
		}
	}
	b.ReportMetric(maxSpread, "max-uplift-spread-pp")
}

func BenchmarkFig13GNMTSensitivity(b *testing.B) {
	benchSensitivity(b, func(s *experiments.Suite) experiments.Workload { return s.GNMT })
}

func BenchmarkFig14DS2Sensitivity(b *testing.B) {
	benchSensitivity(b, func(s *experiments.Suite) experiments.Workload { return s.DS2 })
}

func benchSpeedupProjection(b *testing.B, w func(*experiments.Suite) experiments.Workload) {
	s := bsuite(b)
	var res experiments.SpeedupProjectionResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.SpeedupProjection(s.Lab, w(s), s.Configs, s.Opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeomeanPP[core.MethodSeqPoint], "seqpoint-geomean-pp")
	b.ReportMetric(res.GeomeanPP[core.MethodFrequent], "frequent-geomean-pp")
	b.ReportMetric(res.GeomeanPP[core.MethodWorst], "worst-geomean-pp")
}

func BenchmarkFig15DS2SpeedupProjection(b *testing.B) {
	benchSpeedupProjection(b, func(s *experiments.Suite) experiments.Workload { return s.DS2 })
}

func BenchmarkFig16GNMTSpeedupProjection(b *testing.B) {
	benchSpeedupProjection(b, func(s *experiments.Suite) experiments.Workload { return s.GNMT })
}

func BenchmarkProfilingSpeedup(b *testing.B) {
	s := bsuite(b)
	var ds2, gnmt experiments.CostResult
	var err error
	for i := 0; i < b.N; i++ {
		if ds2, err = experiments.Cost(s.Lab, s.DS2, s.Calib(), s.Opts); err != nil {
			b.Fatal(err)
		}
		if gnmt, err = experiments.Cost(s.Lab, s.GNMT, s.Calib(), s.Opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ds2.SerialSpeedup, "ds2-serial-x")
	b.ReportMetric(ds2.ParallelSpeedup, "ds2-parallel-x")
	b.ReportMetric(gnmt.SerialSpeedup, "gnmt-serial-x")
	b.ReportMetric(gnmt.ParallelSpeedup, "gnmt-parallel-x")
}

func BenchmarkKMeansAblation(b *testing.B) {
	s := bsuite(b)
	var ds2 experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		ds2, err = experiments.Ablation(s.Lab, s.DS2, s.Configs, s.Opts, s.DS2.Seed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ds2.BinningErrPct, "binning-geomean-%")
	b.ReportMetric(ds2.KMeansErrPct, "kmeans-geomean-%")
}

// BenchmarkFullSuite regenerates every experiment end to end, discarding
// the rendered output — the wall-clock cost of reproducing the paper.
func BenchmarkFullSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.DefaultSeed)
		if _, err := s.RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSweep measures the (workload × Table II config) grid —
// the paper's whole evaluation input — on a cold engine at parallelism
// 1 versus GOMAXPROCS. The ratio of the two is the engine's wall-clock
// speedup; results are byte-identical at any width, so the parallel run
// is a pure win.
func BenchmarkEngineSweep(b *testing.B) {
	var tasks []engine.SweepTask
	for _, w := range []experiments.Workload{
		experiments.DS2Workload(experiments.DefaultSeed),
		experiments.GNMTWorkload(experiments.DefaultSeed),
	} {
		for _, cfg := range gpusim.TableII() {
			tasks = append(tasks, w.Task(cfg))
		}
	}
	pars := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pars = append(pars, n)
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh engine per iteration: this measures the cold
				// sweep, not cache hits.
				res := engine.New().Sweep(context.Background(), tasks, par)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkServingLoadSweep measures the online-serving load sweep —
// the arrival-rate saturation curve — on the shared suite, reporting
// the measured capacity and the latency tail on either side of the
// knee. The numbers land in the BENCH_ci.json artifact alongside the
// paper benchmarks.
func BenchmarkServingLoadSweep(b *testing.B) {
	s := bsuite(b)
	var res experiments.LoadSweepResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.LoadSweep(s.Lab, s.GNMT, s.Calib(),
			experiments.DefaultServeRequests, experiments.LoadSweepFactors())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CapacityRPS, "capacity-rps")
	knee := res.Knee()
	if knee >= 0 {
		b.ReportMetric(res.Rows[knee].P99LatencyUS, "p99-at-knee-us")
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.P99LatencyUS, "p99-overload-us")
	b.ReportMetric(last.ThroughputRPS, "overload-throughput-rps")
}

// BenchmarkFleetSweep measures the replicas × routing grid on the
// shared suite, reporting the routing-policy payoff (round-robin vs
// JSQ p99 at the largest fleet) so the BENCH_ci.json artifact tracks
// the fleet simulator's headline result per commit.
func BenchmarkFleetSweep(b *testing.B) {
	s := bsuite(b)
	var res experiments.FleetSweepResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.FleetSweep(s.Lab, s.GNMT, s.Calib(),
			experiments.DefaultServeRequests,
			experiments.FleetSweepReplicaCounts(), experiments.FleetSweepRoutings(),
			experiments.DefaultFleetLoadFactor)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CapacityRPS, "replica-capacity-rps")
	maxN := res.Rows[len(res.Rows)-1].Replicas
	var rrP99, jsqP99 float64
	for _, row := range res.Rows {
		if row.Replicas != maxN {
			continue
		}
		switch row.Routing {
		case "rr":
			rrP99 = row.P99LatencyUS
		case "jsq":
			jsqP99 = row.P99LatencyUS
		}
	}
	b.ReportMetric(rrP99, "rr-p99-us")
	b.ReportMetric(jsqP99, "jsq-p99-us")
}

// BenchmarkSelect measures the SeqPoint selection algorithm itself
// (binning + auto-k) on a realistic epoch log — microseconds, which is
// the point: selection is free compared to profiling.
func BenchmarkSelect(b *testing.B) {
	s := bsuite(b)
	run, err := s.Lab.Run(s.GNMT, s.Calib())
	if err != nil {
		b.Fatal(err)
	}
	recs, err := experiments.SLRecords(run, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Select(recs, s.Opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateIteration measures pricing one GNMT training
// iteration at a mid-range sequence length — the substrate's unit cost.
func BenchmarkSimulateIteration(b *testing.B) {
	s := bsuite(b)
	sim, err := gpusim.New(s.Calib())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total float64
		for _, op := range tensor.Flatten(s.GNMT.Model.IterationBlocks(s.GNMT.Batch, 40)) {
			total += sim.Price(op).TimeUS
		}
		if total <= 0 {
			b.Fatal("zero-time iteration")
		}
	}
}

// BenchmarkProfileIteration measures one cold profiled iteration per
// SQNN through profiler.ProfileIteration, the unit of work behind every
// engine cache miss: gnmt, transformer and seq2seq at batch 64 and SL
// 40, ds2 at batch 64 and SL 200 (inside its range). The models repeat
// their per-timestep blocks to different degrees, so each gets its own
// rung.
func BenchmarkProfileIteration(b *testing.B) {
	sim, err := gpusim.New(gpusim.TableII()[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		m      models.Model
		seqLen int
	}{
		{models.NewGNMT(), 40},
		{models.NewTransformer(), 40},
		{models.NewSeq2Seq(), 40},
		{models.NewDS2(), 200},
	} {
		b.Run(bc.m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := profiler.ProfileIteration(sim, bc.m, 64, bc.seqLen)
				if err != nil {
					b.Fatal(err)
				}
				if p.TimeUS <= 0 {
					b.Fatal("zero-time iteration")
				}
			}
		})
	}
}

// BenchmarkSimulateWarm measures engine.Simulate of a 64-sample
// explicit corpus on a primed engine: every profile is a cache hit, so
// this is the hit path plus autotune and run aggregation.
func BenchmarkSimulateWarm(b *testing.B) {
	lengths := make([]int, 64)
	for i := range lengths {
		lengths[i] = 8 + 8*(i%6)
	}
	corpus, err := dataset.Synthetic("warm", lengths, 1000)
	if err != nil {
		b.Fatal(err)
	}
	spec := trainer.Spec{
		Model: models.NewGNMT(), Train: corpus, Eval: corpus, Batch: 4, Epochs: 1,
		Schedule: dataset.GNMTSchedule(), Seed: 1,
	}
	hw := gpusim.TableII()[0]
	eng := engine.New()
	if _, err := eng.Simulate(spec, hw); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := eng.Simulate(spec, hw)
		if err != nil {
			b.Fatal(err)
		}
		if run.AutotuneUS <= 0 {
			b.Fatal("warm run charged no autotune")
		}
	}
}
