package profiler

import (
	"math"
	"testing"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/tensor"
)

func sim(t *testing.T) *gpusim.Simulator {
	t.Helper()
	s, err := gpusim.New(gpusim.VegaFE())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProfileIterationAggregates(t *testing.T) {
	s := sim(t)
	m := models.NewDS2()
	p, err := ProfileIteration(s, m, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.SeqLen != 100 || p.Batch != 16 {
		t.Errorf("identity: %+v", p)
	}
	if p.TimeUS <= 0 {
		t.Error("iteration time must be positive")
	}
	if p.NumKernels != len(tensor.Flatten(m.IterationBlocks(16, 100))) {
		t.Errorf("NumKernels = %d, want one per op", p.NumKernels)
	}
	// The kernel breakdown must sum back to the totals.
	bd := breakdown(t, s, m, 16, 100)
	var sumT float64
	var sumCount int
	for _, k := range bd.Kernels {
		sumT += k.TimeUS
		sumCount += k.Count
	}
	if math.Abs(sumT-p.TimeUS) > 1e-6*p.TimeUS {
		t.Errorf("kernel times sum to %v, total %v", sumT, p.TimeUS)
	}
	if sumCount != p.NumKernels {
		t.Errorf("kernel counts sum to %d, total %d", sumCount, p.NumKernels)
	}
	// Sorted by descending time.
	for i := 1; i < len(bd.Kernels); i++ {
		if bd.Kernels[i].TimeUS > bd.Kernels[i-1].TimeUS {
			t.Error("kernels not sorted by time")
			break
		}
	}
	// Label shares also sum to the total (every op is labeled).
	var sumLabel float64
	for _, us := range bd.LabelTimeUS {
		sumLabel += us
	}
	if math.Abs(sumLabel-p.TimeUS) > 1e-6*p.TimeUS {
		t.Errorf("label times sum to %v, total %v", sumLabel, p.TimeUS)
	}
}

func TestProfileIterationInvalidArgs(t *testing.T) {
	s := sim(t)
	m := models.NewDS2()
	if _, err := ProfileIteration(s, m, 0, 10); err == nil {
		t.Error("zero batch should error")
	}
	if _, err := ProfileIteration(s, m, 10, 0); err == nil {
		t.Error("zero seqlen should error")
	}
	if _, err := ProfileEval(s, m, 0, 10); err == nil {
		t.Error("eval zero batch should error")
	}
	if _, err := BreakdownStep(s, gpusim.SingleGPU(), m, 10, 0); err == nil {
		t.Error("breakdown zero seqlen should error")
	}
	bad := gpusim.DefaultCluster(4)
	bad.Overlap = 2
	if _, err := BreakdownStep(s, bad, m, 16, 10); err == nil {
		t.Error("breakdown on an invalid cluster should error")
	}
}

func TestProfileEvalCheaperThanTraining(t *testing.T) {
	s := sim(t)
	m := models.NewGNMT()
	train, err := ProfileIteration(s, m, 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := ProfileEval(s, m, 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	if eval.TimeUS >= train.TimeUS {
		t.Errorf("eval %v us should be cheaper than training %v us", eval.TimeUS, train.TimeUS)
	}
}

func TestProfileDeterministic(t *testing.T) {
	s := sim(t)
	m := models.NewGNMT()
	a, err := ProfileIteration(s, m, 16, 37)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileIteration(s, m, 16, 37)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeUS != b.TimeUS || a.NumKernels != b.NumKernels {
		t.Error("profiles must be deterministic")
	}
}

func TestUniqueKernelsAndOverlap(t *testing.T) {
	s := sim(t)
	m := models.NewDS2()
	b1, b2 := breakdown(t, s, m, 64, 100), breakdown(t, s, m, 64, 400)
	u1 := b1.UniqueKernels()
	if len(u1) != len(b1.Kernels) {
		t.Errorf("unique set %d != kernel rows %d", len(u1), len(b1.Kernels))
	}

	common, only1, only2 := Overlap(b1, b2)
	if common+only1 != len(u1) {
		t.Errorf("common %d + only1 %d != |p1| %d", common, only1, len(u1))
	}
	if common+only2 != len(b2.UniqueKernels()) {
		t.Errorf("common %d + only2 %d != |p2|", common, only2)
	}
	// Self overlap is total.
	c, o1, o2 := Overlap(b1, b1)
	if o1 != 0 || o2 != 0 || c != len(u1) {
		t.Errorf("self overlap = (%d,%d,%d)", c, o1, o2)
	}
	// Distant SLs differ in at least one kernel (Fig. 5 behaviour).
	if only1+only2 == 0 {
		t.Error("SL 100 and 400 iterations should differ in some kernels")
	}
}

// TestTimeShareByKind: the per-kernel breakdown's time, bucketed by op
// class, accounts for the whole iteration, and GEMMs dominate GNMT.
func TestTimeShareByKind(t *testing.T) {
	s := sim(t)
	m := models.NewGNMT()
	p := trainProfile(t, s, m, 16, 30)
	shares := make(map[tensor.Kind]float64)
	for _, k := range breakdown(t, s, m, 16, 30).Kernels {
		shares[k.Kind] += k.TimeUS / p.TimeUS
	}
	var total float64
	for _, v := range shares {
		if v < 0 {
			t.Error("negative share")
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if shares[tensor.KindGEMM] < 0.3 {
		t.Errorf("GEMMs should dominate GNMT runtime, got %v", shares[tensor.KindGEMM])
	}
}

// breakdown is BreakdownStep on one GPU that fails the test on error.
func breakdown(t *testing.T, s *gpusim.Simulator, m models.Model, batch, seqLen int) Breakdown {
	t.Helper()
	bd, err := BreakdownStep(s, gpusim.SingleGPU(), m, batch, seqLen)
	if err != nil {
		t.Fatal(err)
	}
	return bd
}

// trainProfile is ProfileIteration that fails the test on error.
func trainProfile(t *testing.T, s *gpusim.Simulator, m models.Model, batch, seqLen int) IterationProfile {
	t.Helper()
	p, err := ProfileIteration(s, m, batch, seqLen)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAutotuneChargesNewShapesOnce(t *testing.T) {
	s := sim(t)
	m := models.NewDS2()
	p100, p120 := trainProfile(t, s, m, 16, 100), trainProfile(t, s, m, 16, 120)
	seen := make(map[string]bool)
	first := AutotuneUS(p100, seen)
	if first <= 0 {
		t.Fatal("first iteration at a new SL must pay autotune")
	}
	// Same SL again: every shape already tuned.
	if again := AutotuneUS(p100, seen); again != 0 {
		t.Errorf("re-tuning already-seen shapes: %v us", again)
	}
	// A new SL introduces new SL-dependent shapes but shares the
	// fixed-shape kernels (per-timestep projections) already tuned.
	second := AutotuneUS(p120, seen)
	if second <= 0 {
		t.Error("new SL should introduce new GEMM shapes")
	}
	scratch := AutotuneUS(p120, make(map[string]bool))
	if second >= scratch {
		t.Errorf("incremental tuning (%v us) should cost less than from scratch (%v us)", second, scratch)
	}
}

func TestAutotuneOnlyTunesGEMMAndConv(t *testing.T) {
	s := sim(t)
	m := models.NewGNMT()
	seen := make(map[string]bool)
	AutotuneUS(trainProfile(t, s, m, 8, 20), seen)
	for sig := range seen {
		if len(sig) < 4 || (sig[:4] != "gemm" && sig[:4] != "conv") {
			t.Errorf("tuned non-GEMM/conv shape %q", sig)
		}
	}
}
