package experiments

import (
	"strconv"
	"testing"

	"seqpoint/internal/engine"
	"seqpoint/internal/gpusim"
)

// TestKVSweepMemoryWall pins the shape of the KV capacity sweep: ample
// caches never preempt, starved ones preempt more the smaller they
// get, throughput falls and the TTFT tail never improves as the
// ceiling drops, and no row holds more cache than it has.
func TestKVSweepMemoryWall(t *testing.T) {
	lab := NewLabWith(engine.New())
	w := sweepWorkload()
	caps := KVSweepCapacitiesGB()
	res, err := KVSweep(lab, w, gpusim.VegaFE(), 256, caps, DefaultKVLoadFactor)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(caps) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(caps))
	}
	for i, row := range res.Rows {
		if row.CapacityGB != caps[i] {
			t.Errorf("row %d capacity %g GB, want %g", i, row.CapacityGB, caps[i])
		}
		if i < 3 && row.Preemptions != 0 {
			t.Errorf("ample %g GB cache preempted %d requests", row.CapacityGB, row.Preemptions)
		}
		if i > 0 && row.P99TTFTUS < res.Rows[i-1].P99TTFTUS {
			t.Errorf("p99 TTFT fell from %.0fus to %.0fus as the cache shrank to %g GB",
				res.Rows[i-1].P99TTFTUS, row.P99TTFTUS, row.CapacityGB)
		}
	}
	tight, starved := res.Rows[3], res.Rows[4]
	if tight.Preemptions <= 0 || starved.Preemptions <= tight.Preemptions {
		t.Errorf("preemptions %d at %g GB then %d at %g GB, want positive and rising",
			tight.Preemptions, tight.CapacityGB, starved.Preemptions, starved.CapacityGB)
	}
	if first := res.Rows[0]; starved.ThroughputRPS >= first.ThroughputRPS {
		t.Errorf("starved throughput %.1f rps not below ample %.1f rps", starved.ThroughputRPS, first.ThroughputRPS)
	}

	// The exported columns carry the same invariant: peak <= capacity.
	for _, rec := range csvLines(t, res.CSV())[1:] {
		capGB, err1 := strconv.ParseFloat(rec[0], 64)
		peakGB, err2 := strconv.ParseFloat(rec[6], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable CSV row %v", rec)
		}
		if peakGB > capGB {
			t.Errorf("peak %g GB above the %g GB capacity", peakGB, capGB)
		}
	}

	// A cache smaller than any single request's footprint cannot serve
	// the trace; the sweep must say so rather than report a thinned run.
	if _, err := KVSweep(lab, w, gpusim.VegaFE(), 256, []float64{1e-6}, DefaultKVLoadFactor); err == nil {
		t.Error("a 1e-6 GB cache served the trace")
	}
}
