package experiments

import (
	"slices"
	"strings"
	"testing"

	"seqpoint/internal/core"
	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
)

func TestBatchSizeSweep(t *testing.T) {
	lab := NewLab()
	w := testGNMTWorkload(t)
	res, err := BatchSize(lab, w, gpusim.VegaFE(), []int{8, 16, 32}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper Section V-A: smaller batches -> more iterations and at
	// least as many unique SLs.
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Iterations >= prev.Iterations {
			t.Errorf("batch %d has %d iterations, batch %d has %d — bigger batches mean fewer iterations",
				prev.Batch, prev.Iterations, cur.Batch, cur.Iterations)
		}
		if cur.UniqueSLs > prev.UniqueSLs {
			t.Errorf("batch %d has %d unique SLs, batch %d has %d — unique SLs should not grow with batch",
				prev.Batch, prev.UniqueSLs, cur.Batch, cur.UniqueSLs)
		}
	}
	for _, row := range res.Rows {
		if row.SelfErrPct > 1 {
			t.Errorf("batch %d self error %v%%", row.Batch, row.SelfErrPct)
		}
	}
	if !strings.Contains(res.Render(), "batch size") {
		t.Error("render header")
	}
}

func TestThresholdSweepMonotone(t *testing.T) {
	lab := NewLab()
	res, err := ThresholdSweep(lab, testGNMTWorkload(t), gpusim.VegaFE(), []float64{10, 1, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.SeqPoints < prev.SeqPoints {
			t.Errorf("tightening e from %v to %v shrank the selection (%d -> %d)",
				prev.ThresholdPct, cur.ThresholdPct, prev.SeqPoints, cur.SeqPoints)
		}
		// Each row must meet its own threshold (or be exhaustive).
		if cur.SelfErrPct > cur.ThresholdPct && cur.Bins < cur.SeqPoints {
			t.Errorf("threshold %v not met: err %v", cur.ThresholdPct, cur.SelfErrPct)
		}
	}
	if !strings.Contains(res.Render(), "threshold") {
		t.Error("render header")
	}
}

func TestDatasetScaleSpeedupGrows(t *testing.T) {
	lab := NewLab()
	w := testDS2Workload(t)
	// A 4x larger corpus with the same length distribution.
	big := dataset.Subsample(w.Train, w.Train.Size(), 1)
	lengths := append([]int(nil), big.Lengths...)
	for i := 0; i < 3; i++ {
		lengths = append(lengths, big.Lengths...)
	}
	larger, err := dataset.Synthetic("ds2-mini-4x", lengths, w.Train.Vocab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DatasetScale(lab, w, larger, gpusim.VegaFE(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, bigRow := res.Rows[0], res.Rows[1]
	if bigRow.Iterations <= small.Iterations {
		t.Error("larger corpus should have more iterations")
	}
	// The paper's Section VI-F claim: same SL range, so speedups grow
	// with dataset size.
	if bigRow.SerialSpeedup <= small.SerialSpeedup {
		t.Errorf("serial speedup should grow: %vx -> %vx", small.SerialSpeedup, bigRow.SerialSpeedup)
	}
	if !strings.Contains(res.Render(), "larger dataset") {
		t.Error("render header")
	}
}

func TestLargerCorporaShapes(t *testing.T) {
	l500 := dataset.LibriSpeech500h(1)
	if l500.Size() != dataset.Libri500Size {
		t.Errorf("libri-500 size = %d", l500.Size())
	}
	// Same SL range as the 100h set (the paper's observation).
	l100 := dataset.LibriSpeech100h(1)
	lo100, hi100 := slices.Min(l100.Lengths), slices.Max(l100.Lengths)
	lo500, hi500 := slices.Min(l500.Lengths), slices.Max(l500.Lengths)
	if lo500 < lo100-20 || hi500 > hi100+20 {
		t.Errorf("500h range [%d,%d] should match 100h [%d,%d]", lo500, hi500, lo100, hi100)
	}

	wmt := dataset.WMT16(1)
	if wmt.Size() != dataset.WMT16Size {
		t.Errorf("wmt16 size = %d", wmt.Size())
	}
	if wmt.Vocab != 32000 {
		t.Errorf("wmt16 vocab = %d", wmt.Vocab)
	}
}
