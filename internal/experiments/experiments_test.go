package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
)

// testDS2Workload is a scaled-down DS2 set-up: the real model over a
// small synthetic corpus, so full five-config simulations stay fast.
func testDS2Workload(t *testing.T) Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	lengths := make([]int, 640)
	for i := range lengths {
		lengths[i] = 60 + rng.Intn(140)
	}
	c, err := dataset.Synthetic("ds2-mini", lengths, 29)
	if err != nil {
		t.Fatal(err)
	}
	return Workload{
		Name:     "ds2",
		Model:    models.NewDS2(),
		Train:    c,
		Schedule: dataset.DS2Schedule(),
		Batch:    32,
		Epochs:   2,
		Seed:     9,
	}
}

// testGNMTWorkload mirrors testDS2Workload for GNMT with a long-tail
// length distribution.
func testGNMTWorkload(t *testing.T) Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	lengths := make([]int, 640)
	for i := range lengths {
		l := 1 + int(rng.ExpFloat64()*20)
		if l > 90 {
			l = 90
		}
		lengths[i] = l
	}
	c, err := dataset.Synthetic("gnmt-mini", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return Workload{
		Name:     "gnmt",
		Model:    models.NewGNMT(),
		Train:    c,
		Schedule: dataset.GNMTSchedule(),
		Batch:    32,
		Epochs:   2,
		Seed:     11,
	}
}

func twoConfigs() []gpusim.Config {
	cfgs := gpusim.TableII()
	return []gpusim.Config{cfgs[0], cfgs[1]}
}

func TestLabMemoizes(t *testing.T) {
	lab := NewLab()
	w := testDS2Workload(t)
	cfg := gpusim.VegaFE()
	a, err := lab.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("lab should return the cached run pointer")
	}
	// A different config is a different run.
	c, err := lab.Run(w, gpusim.TableII()[1])
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different config must not share the cache entry")
	}
}

func TestLabDistinguishesCorpora(t *testing.T) {
	lab := NewLab()
	w1 := testDS2Workload(t)
	w2 := testDS2Workload(t)
	c, err := dataset.Synthetic("other", []int{50, 60, 70, 80, 90, 100, 110, 120,
		130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240,
		50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160}, 29)
	if err != nil {
		t.Fatal(err)
	}
	w2.Train = c
	w2.Batch = 16
	a, err := lab.Run(w1, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.Run(w2, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different corpora must not collide in the cache")
	}
}

func TestSLRecordsMatchEpoch(t *testing.T) {
	lab := NewLab()
	w := testDS2Workload(t)
	run, err := lab.Run(w, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := SLRecords(run, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, r := range recs {
		total += r.Freq
		if r.Stat <= 0 {
			t.Errorf("SL %d stat %v", r.SeqLen, r.Stat)
		}
	}
	if total != run.EpochPlans[0].Iterations() {
		t.Errorf("record frequencies sum to %d, epoch has %d iterations",
			total, run.EpochPlans[0].Iterations())
	}
}

func TestFig3CNNFlatRNNVaries(t *testing.T) {
	lab := NewLab()
	res, err := Fig3(lab, testGNMTWorkload(t), 8, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	if res.CNNSpreadPct > 1e-9 {
		t.Errorf("CNN spread = %v%%, want 0 (homogeneous iterations)", res.CNNSpreadPct)
	}
	if res.RNNSpreadPct < 10 {
		t.Errorf("SQNN spread = %v%%, want clearly heterogeneous", res.RNNSpreadPct)
	}
	if len(res.CNN) != 8 || len(res.RNN) != 8 {
		t.Error("sample counts")
	}
	if !strings.Contains(res.Render(), "Fig 3") {
		t.Error("render header")
	}
}

func TestFig4SpreadsPositive(t *testing.T) {
	lab := NewLab()
	res, err := Fig4(lab, []Workload{testDS2Workload(t)}, 4, gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("rows")
	}
	row := res.Rows[0]
	for _, c := range []Fig4Counter{CounterMemWriteStalls, CounterVALUInsts, CounterLoadData} {
		if len(row.Normalized[c]) != 4 {
			t.Errorf("%s has %d samples", c, len(row.Normalized[c]))
		}
		if row.SpreadPct[c] <= 0 {
			t.Errorf("%s spread = %v, SQNN iterations must differ", c, row.SpreadPct[c])
		}
	}
	if !strings.Contains(res.Render(), "Fig 4") {
		t.Error("render header")
	}
}

func TestTableIFixedAndVaryingDims(t *testing.T) {
	res, err := TableI(models.NewGNMT(), 64, 94, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	a := res.Rows[0]
	if a.M != 36549 || a.K != 1024 {
		t.Errorf("GEMM-a fixed dims %dx%d, want 36549x1024 (paper Table I)", a.M, a.K)
	}
	if a.N1 != 6016 || a.N2 != 576 {
		t.Errorf("GEMM-a N = %d/%d, want 6016/576 (paper Table I)", a.N1, a.N2)
	}
	if !strings.Contains(res.Render(), "Table I") {
		t.Error("render header")
	}
}

func TestTableIMissingLabel(t *testing.T) {
	if _, err := TableI(models.NewCNN(), 8, 10, 20); err == nil {
		// CNN has a classifier but no classifier_dgrad at differing N;
		// actually it has both labels — ensure no fixed-dim violation.
		res, err2 := TableI(models.NewCNN(), 8, 10, 20)
		if err2 != nil {
			t.Fatal(err2)
		}
		// CNN: N must be identical across "SLs".
		if res.Rows[0].N1 != res.Rows[0].N2 {
			t.Error("CNN classifier N should not vary with seqLen")
		}
	}
}

func TestFig5OverlapCounts(t *testing.T) {
	lab := NewLab()
	res, err := Fig5(lab, testDS2Workload(t), gpusim.VegaFE(), [][2]int{{60, 190}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Fatal("pairs")
	}
	p := res.Pairs[0]
	if p.Total() <= 0 {
		t.Fatal("no kernels")
	}
	if p.ExclusivePct() < 0 || p.ExclusivePct() > 100 {
		t.Errorf("exclusive = %v%%", p.ExclusivePct())
	}
	if !strings.Contains(res.Render(), "Fig 5") {
		t.Error("render header")
	}
}

func TestFig6SharesSumTo100(t *testing.T) {
	lab := NewLab()
	res, err := Fig6(lab, testGNMTWorkload(t), gpusim.VegaFE(), []int{5, 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range res.Columns {
		var sum float64
		for _, v := range col.SharePct {
			sum += v
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("SL %d shares sum to %v", col.SeqLen, sum)
		}
	}
	if res.MaxGroupShiftPct() <= 0 {
		t.Error("distant SLs should shift the distribution")
	}
}

func TestFig8NearbySLsSimilar(t *testing.T) {
	lab := NewLab()
	w := testDS2Workload(t)
	// Two nearby and one distant SL: the nearby pair's shift must be
	// far smaller than the distant pair's (paper Figs 6 vs 8).
	res, err := Fig6(lab, w, gpusim.VegaFE(), []int{100, 104, 190})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 {
		t.Skipf("corpus snapped SLs to %d columns", len(res.Columns))
	}
	near := res.PairShiftPct(0, 1)
	far := res.PairShiftPct(0, 2)
	if near > far {
		t.Errorf("nearby shift %v pp exceeds distant shift %v pp", near, far)
	}
}

func TestFig7Histogram(t *testing.T) {
	lab := NewLab()
	res, err := Fig7(lab, testGNMTWorkload(t), gpusim.VegaFE(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram.Total() != res.Iterations {
		t.Error("histogram should cover every iteration")
	}
	if res.UniqueSLs <= 0 || res.UniqueSLs > res.Iterations {
		t.Errorf("uniqueSLs = %d", res.UniqueSLs)
	}
	if res.MeanSL <= res.MedianSL {
		t.Error("long-tail corpus: mean should exceed median")
	}
}

func TestFig9NearLinear(t *testing.T) {
	lab := NewLab()
	for _, w := range []Workload{testDS2Workload(t), testGNMTWorkload(t)} {
		res, err := Fig9(lab, w, gpusim.VegaFE())
		if err != nil {
			t.Fatal(err)
		}
		if res.Fit.R2 < 0.98 {
			t.Errorf("%s: R2 = %v, want near-linear runtime vs SL (paper Fig 9)", w.Name, res.Fit.R2)
		}
		if res.Fit.Slope <= 0 {
			t.Errorf("%s: slope = %v, runtime must grow with SL", w.Name, res.Fit.Slope)
		}
	}
}

func TestSelectAllMethodsComplete(t *testing.T) {
	lab := NewLab()
	run, err := lab.Run(testDS2Workload(t), gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	sels, err := SelectAll(run, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 5 {
		t.Fatalf("methods = %d, want 5", len(sels))
	}
	for _, ms := range sels {
		if len(ms.Sel.Points) == 0 {
			t.Errorf("%s selected no points", ms.Method)
		}
		if ms.IterationsProfiled <= 0 {
			t.Errorf("%s profiles %d iterations", ms.Method, ms.IterationsProfiled)
		}
	}
	// Prior's budget is its fixed sample count (clamped to the epoch),
	// not its unique SLs.
	wantPrior := core.DefaultPriorSampleCount
	if n := run.EpochPlans[0].Iterations(); n < wantPrior {
		wantPrior = n
	}
	for _, ms := range sels {
		if ms.Method == core.MethodPrior && ms.IterationsProfiled != wantPrior {
			t.Errorf("prior profiles %d, want %d", ms.IterationsProfiled, wantPrior)
		}
	}
}

func TestTimeProjectionSeqPointWins(t *testing.T) {
	lab := NewLab()
	cfgs := gpusim.TableII()
	for _, w := range []Workload{testDS2Workload(t), testGNMTWorkload(t)} {
		res, err := TimeProjection(lab, w, cfgs, core.Options{ErrorThresholdPct: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		sp := res.GeomeanPct[core.MethodSeqPoint]
		if sp > 1.0 {
			t.Errorf("%s: seqpoint geomean error %v%%, want <= 1%%", w.Name, sp)
		}
		for _, m := range []core.MethodName{core.MethodWorst, core.MethodFrequent} {
			if res.GeomeanPct[m] <= sp {
				t.Errorf("%s: %s (%v%%) should not beat seqpoint (%v%%)",
					w.Name, m, res.GeomeanPct[m], sp)
			}
		}
		if res.SeqPointCount <= 0 {
			t.Error("no seqpoints reported")
		}
		if !strings.Contains(res.Render(), "error in total training time") {
			t.Error("render header")
		}
	}
}

func TestSpeedupProjectionBounds(t *testing.T) {
	lab := NewLab()
	w := testDS2Workload(t)
	res, err := SpeedupProjection(lab, w, gpusim.TableII(), core.Options{ErrorThresholdPct: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 4 {
		t.Fatalf("pairs = %d", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if res.ActualUpliftPct[p] <= 0 {
			t.Errorf("%s actual uplift %v%%: #1 must be fastest", p, res.ActualUpliftPct[p])
		}
	}
	sp := res.GeomeanPP[core.MethodSeqPoint]
	if sp > 3 {
		t.Errorf("seqpoint speedup error %v pp, want small", sp)
	}
	if res.GeomeanPP[core.MethodWorst] <= sp {
		t.Error("worst should not beat seqpoint on speedups")
	}
}

func TestSensitivityCurves(t *testing.T) {
	lab := NewLab()
	res, err := Sensitivity(lab, testGNMTWorkload(t), twoConfigs(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 1 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	c := res.Curves[0]
	if len(c.SeqLens) == 0 {
		t.Fatal("empty curve")
	}
	for i, u := range c.UpliftPct {
		if u <= 0 {
			t.Errorf("uplift at SL %d = %v%%, #1 must win", c.SeqLens[i], u)
		}
	}
	if c.SpreadPP() <= 0 {
		t.Error("uplift should vary across SLs (paper Figs 13/14)")
	}
	if res.PriorBandLo > res.PriorBandHi {
		t.Errorf("prior band [%d,%d]", res.PriorBandLo, res.PriorBandHi)
	}
}

func TestCostReduction(t *testing.T) {
	lab := NewLab()
	res, err := Cost(lab, testDS2Workload(t), gpusim.VegaFE(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialSpeedup <= 1 {
		t.Errorf("serial speedup = %v, profiling few iterations must beat the epoch", res.SerialSpeedup)
	}
	if res.ParallelSpeedup < res.SerialSpeedup {
		t.Error("parallel profiling cannot be slower than serial")
	}
	if res.NumSeqPoints >= res.EpochIterations {
		t.Error("seqpoints should be far fewer than epoch iterations")
	}
	if !strings.Contains(res.Render(), "profiling-cost") {
		t.Error("render header")
	}
}

func TestAblationBothSchemesAccurate(t *testing.T) {
	lab := NewLab()
	res, err := Ablation(lab, testDS2Workload(t), twoConfigs(), core.Options{ErrorThresholdPct: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.K <= 0 {
		t.Error("no clusters")
	}
	// Section VII-C: both schemes land in the same accuracy regime.
	if res.BinningErrPct > 5 || res.KMeansErrPct > 5 {
		t.Errorf("errors: binning %v%%, k-means %v%% — both should be small",
			res.BinningErrPct, res.KMeansErrPct)
	}
	if !strings.Contains(res.Render(), "binning vs k-means") {
		t.Error("render header")
	}
}

func TestSpreadSLs(t *testing.T) {
	sorted := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := spreadSLs(sorted, 3)
	if len(got) != 3 || got[0] != 1 || got[2] != 10 {
		t.Errorf("spreadSLs = %v, want extremes included", got)
	}
	if got := spreadSLs(sorted, 20); len(got) != 10 {
		t.Errorf("n > len should return all: %v", got)
	}
}

func TestNearestSLs(t *testing.T) {
	got := nearestSLs([]int{10, 20, 30}, []int{1, 19, 26, 100})
	want := []int{10, 20, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("nearestSLs[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCNNWorkloadValid(t *testing.T) {
	w := CNNWorkload(1)
	if _, ok := w.Model.(*models.CNN); !ok {
		t.Errorf("CNN workload serves %s, want the CNN", w.Model.Name())
	}
	if w.Train.Size() < w.Batch {
		t.Error("corpus too small for one batch")
	}
}
