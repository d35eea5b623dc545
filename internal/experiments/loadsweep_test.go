package experiments

import (
	"strings"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
)

// sweepWorkload is a GNMT workload on a subsampled corpus: small
// enough to simulate quickly, varied enough to have a real SL tail.
func sweepWorkload() Workload {
	w := GNMTWorkload(DefaultSeed)
	w.Train = dataset.Subsample(w.Train, 2048, DefaultSeed)
	return w
}

// TestLoadSweepSaturationKnee is the acceptance check for the serving
// saturation curve: past the knee, throughput plateaus at capacity
// while p99 latency rises superlinearly in the offered load.
func TestLoadSweepSaturationKnee(t *testing.T) {
	lab := NewLabWith(engine.New())
	w := sweepWorkload()
	factors := []float64{0.2, 0.6, 1.2, 2.5}
	res, err := LoadSweep(lab, w, gpusim.VegaFE(), 256, factors)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(factors) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(factors))
	}
	if res.CapacityRPS <= 0 {
		t.Fatalf("capacity = %v, want > 0", res.CapacityRPS)
	}
	low, mid, over, deep := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]

	// Below the knee the server keeps up: throughput tracks the
	// offered rate (every request is eventually served, so achieved
	// throughput over the makespan stays close to the arrival rate).
	for _, row := range []LoadSweepRow{low, mid} {
		if row.ThroughputRPS < 0.85*row.RatePerSec {
			t.Errorf("underloaded %.2fx: throughput %.0f rps far below offered %.0f",
				row.Factor, row.ThroughputRPS, row.RatePerSec)
		}
	}

	// Past the knee throughput plateaus: offered load more than
	// doubles from 1.2x to 2.5x, achieved throughput must not follow.
	gain := (deep.ThroughputRPS - over.ThroughputRPS) / over.ThroughputRPS
	if gain > 0.10 {
		t.Errorf("throughput grew %.1f%% from 1.2x to 2.5x load; want a plateau", gain*100)
	}

	// The p99 tail rises superlinearly across the knee: the per-rps
	// slope between 0.6x and 1.2x must exceed the below-knee slope
	// between 0.2x and 0.6x — while the throughput gained over the
	// same crossing collapses.
	slopeBelow := (mid.P99LatencyUS - low.P99LatencyUS) / (mid.RatePerSec - low.RatePerSec)
	slopeAcross := (over.P99LatencyUS - mid.P99LatencyUS) / (over.RatePerSec - mid.RatePerSec)
	if slopeAcross <= 1.2*slopeBelow {
		t.Errorf("p99 slope across knee %.3g <= 1.2 x below-knee slope %.3g; want superlinear growth",
			slopeAcross, slopeBelow)
	}
	if over.P99LatencyUS < 1.5*mid.P99LatencyUS {
		t.Errorf("p99 rose only %.2fx across the knee (%.0f -> %.0f µs)",
			over.P99LatencyUS/mid.P99LatencyUS, mid.P99LatencyUS, over.P99LatencyUS)
	}

	// Overloaded rows saturate the server.
	if deep.UtilizationPct < 90 {
		t.Errorf("2.5x load utilization %.1f%%, want >= 90%%", deep.UtilizationPct)
	}
}

func TestLoadSweepRenderAndCSV(t *testing.T) {
	lab := NewLabWith(engine.New())
	w := sweepWorkload()
	res, err := LoadSweep(lab, w, gpusim.VegaFE(), 128, []float64{0.5, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Load sweep") || !strings.Contains(out, "p99") {
		t.Errorf("Render missing headings:\n%s", out)
	}
	csv := res.CSV()
	if !strings.Contains(csv, "p99_us") {
		t.Errorf("CSV missing header:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Errorf("CSV has %d lines, want 3 (header + 2 rows)", lines)
	}
	if got := res.Knee(); got != 0 {
		t.Errorf("Knee() = %d, want 0", got)
	}
}

func TestLoadSweepErrors(t *testing.T) {
	lab := NewLabWith(engine.New())
	w := sweepWorkload()
	if _, err := LoadSweep(lab, w, gpusim.VegaFE(), 16, nil); err == nil {
		t.Error("no factors should error")
	}
	if _, err := LoadSweep(lab, w, gpusim.VegaFE(), 16, []float64{-1}); err == nil {
		t.Error("negative factor should error")
	}
}
