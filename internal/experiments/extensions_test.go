package experiments

import (
	"strings"
	"testing"

	"seqpoint/internal/core"
	"seqpoint/internal/gpusim"
)

func TestInferenceExperiment(t *testing.T) {
	w := testDS2Workload(t)
	cfgs := gpusim.TableII()
	res, err := Inference(w, cfgs[0], cfgs[1], 16, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches <= 0 || res.UniqueSLs <= 0 {
		t.Fatalf("serving run empty: %+v", res)
	}
	if !(res.P50 <= res.P90 && res.P90 <= res.P99) {
		t.Errorf("percentiles not monotone: %v %v %v", res.P50, res.P90, res.P99)
	}
	if res.Points <= 0 {
		t.Error("no representative request lengths selected")
	}
	if res.CrossErrPct > 2 {
		t.Errorf("cross-config serving projection error %v%%, want small", res.CrossErrPct)
	}
	if !strings.Contains(res.Render(), "inference characterization") {
		t.Error("render header")
	}
}

func TestStatChoiceAllStatsAccurate(t *testing.T) {
	lab := NewLab()
	res, err := StatChoice(lab, testGNMTWorkload(t), twoConfigs(), core.Options{ErrorThresholdPct: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ErrPctByStat) != 3 {
		t.Fatalf("stats = %d, want 3", len(res.ErrPctByStat))
	}
	for stat, e := range res.ErrPctByStat {
		if e > 5 {
			t.Errorf("%s-driven selection projects with %v%% error, want small "+
				"(Section V-C: any SL-varying statistic works)", stat, e)
		}
		if res.PointsByStat[stat] <= 0 {
			t.Errorf("%s selected no points", stat)
		}
	}
	if !strings.Contains(res.Render(), "statistic ablation") {
		t.Error("render header")
	}
}

func TestProfileAblationThreeWay(t *testing.T) {
	lab := NewLab()
	res, err := ProfileAblation(lab, testDS2Workload(t), twoConfigs(), core.Options{ErrorThresholdPct: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.K <= 0 {
		t.Fatal("no clusters")
	}
	// All three schemes must land in the same (small-error) regime —
	// the paper's justification for the simplest one.
	for name, e := range map[string]float64{
		"binning":         res.BinningErrPct,
		"runtime k-means": res.RuntimeKMeansErrPct,
		"profile k-means": res.ProfileKMeansErrPct,
	} {
		if e > 5 {
			t.Errorf("%s error %v%%, want small", name, e)
		}
	}
	if !strings.Contains(res.Render(), "clustering schemes") {
		t.Error("render header")
	}
}

func TestBoundSharesDecomposition(t *testing.T) {
	lab := NewLab()
	res, err := BoundShares(lab, testGNMTWorkload(t), gpusim.VegaFE(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		var total float64
		for _, v := range row.Share {
			if v < 0 {
				t.Errorf("SL %d negative share", row.SeqLen)
			}
			total += v
		}
		if total < 0.999 || total > 1.001 {
			t.Errorf("SL %d shares sum to %v", row.SeqLen, total)
		}
	}
	// The bound mix must shift with SL — the mechanism behind the
	// SL-dependent sensitivity of Figs 13/14. (Which class grows is a
	// model detail; that the mix moves is the invariant.)
	var maxShift float64
	first, last := res.Rows[0].Share, res.Rows[len(res.Rows)-1].Share
	for _, b := range []gpusim.Bound{gpusim.BoundCompute, gpusim.BoundMemory, gpusim.BoundLaunch} {
		d := first[b] - last[b]
		if d < 0 {
			d = -d
		}
		if d > maxShift {
			maxShift = d
		}
	}
	if maxShift*100 < 0.1 {
		t.Errorf("bound mix shift = %.3f pp between extreme SLs, want a visible shift", maxShift*100)
	}
	if !strings.Contains(res.Render(), "Roofline decomposition") {
		t.Error("render header")
	}
}

func TestTransformerAndSeq2SeqWorkloads(t *testing.T) {
	// The Section VII-B workloads must be well-formed; a scaled-down
	// run exercises them end to end through the SeqPoint pipeline.
	for _, mk := range []func(int64) Workload{TransformerWorkload, Seq2SeqWorkload} {
		w := mk(1)
		// Scale down for the test.
		small := testGNMTWorkload(t)
		w.Train = small.Train
		w.Eval = nil
		w.Batch = small.Batch
		w.Epochs = 1

		lab := NewLab()
		run, err := lab.Run(w, gpusim.VegaFE())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		recs, err := SLRecords(run, 0)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := core.Select(recs, core.Options{})
		if err != nil {
			t.Fatalf("%s selection: %v", w.Name, err)
		}
		if sel.ErrorPct > 1 {
			t.Errorf("%s: SeqPoint self error %v%% — binning should handle both the "+
				"linear and the quadratic SL regime", w.Name, sel.ErrorPct)
		}
	}
}

// TestStatChoiceClaimFollowsExtractorOrder pins the Section V-C claim's
// detail to statExtractors order. Ranging over ErrPctByStat instead
// printed the statistics in map order, which varies from run to run.
func TestStatChoiceClaimFollowsExtractorOrder(t *testing.T) {
	r := StatChoiceResult{ErrPctByStat: map[string]float64{
		"dram-reads": 1.52, "valu-insts": 0.27, "runtime": 0.26,
	}}
	for i := 0; i < 50; i++ {
		ok, detail := r.allWithin(2)
		if want := "runtime 0.26% valu-insts 0.27% dram-reads 1.52% "; !ok || detail != want {
			t.Fatalf("allWithin(2) = %v, %q; want true, %q", ok, detail, want)
		}
	}
	r.ErrPctByStat["valu-insts"] = 3
	if ok, detail := r.allWithin(2); ok || detail != "runtime 0.26% valu-insts 3.00% " {
		t.Fatalf("allWithin(2) = %v, %q; want false, stopping at valu-insts", ok, detail)
	}
}
