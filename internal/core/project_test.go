package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func twoPoints() []SeqPoint {
	return []SeqPoint{
		{SeqLen: 10, Weight: 3, Stat: 100},
		{SeqLen: 20, Weight: 1, Stat: 200},
	}
}

func TestProjectTotal(t *testing.T) {
	got, err := ProjectTotal(twoPoints(), map[int]float64{10: 50, 20: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*50+1*100 {
		t.Errorf("ProjectTotal = %v, want 250", got)
	}
}

func TestProjectTotalMissingStat(t *testing.T) {
	_, err := ProjectTotal(twoPoints(), map[int]float64{10: 50})
	if !errors.Is(err, ErrStatMissing) {
		t.Errorf("error = %v, want ErrStatMissing", err)
	}
}

func TestProjectMeanNormalizes(t *testing.T) {
	// Ratio statistics are normalized by total weight (paper: "to
	// predict statistics that are ratios ... normalized by the sum of
	// all weights").
	got, err := ProjectMean(twoPoints(), map[int]float64{10: 40, 20: 80})
	if err != nil {
		t.Fatal(err)
	}
	want := (3.0*40 + 1.0*80) / 4.0
	if got != want {
		t.Errorf("ProjectMean = %v, want %v", got, want)
	}
	if _, err := ProjectMean(nil, nil); err == nil {
		t.Error("zero weight should error")
	}
}

func TestTotalWeightAndSeqLens(t *testing.T) {
	pts := twoPoints()
	if TotalWeight(pts) != 4 {
		t.Errorf("TotalWeight = %v", TotalWeight(pts))
	}
}

func TestProjectThroughput(t *testing.T) {
	// 4 iterations x batch 64 = 256 samples over 250 us.
	got, err := ProjectThroughput(twoPoints(), map[int]float64{10: 50, 20: 100}, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := 256.0 / (250.0 / 1e6)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("ProjectThroughput = %v, want %v", got, want)
	}
}

func TestProjectThroughputErrors(t *testing.T) {
	if _, err := ProjectThroughput(twoPoints(), map[int]float64{10: 1, 20: 1}, 0); err == nil {
		t.Error("non-positive batch should error")
	}
	if _, err := ProjectThroughput(twoPoints(), map[int]float64{10: 0, 20: 0}, 64); err == nil {
		t.Error("zero projected time should error")
	}
	if _, err := ProjectThroughput(twoPoints(), map[int]float64{10: 1}, 64); !errors.Is(err, ErrStatMissing) {
		t.Error("missing stat should report ErrStatMissing")
	}
}

func TestUpliftPct(t *testing.T) {
	got, err := UpliftPct(150, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("UpliftPct = %v, want 50", got)
	}
	if _, err := UpliftPct(1, 0); err == nil {
		t.Error("zero base should error")
	}
}

func TestQuickProjectionExactWhenAllSLsSelected(t *testing.T) {
	// If every unique SL is its own SeqPoint, projection on any config
	// reproduces that config's epoch total exactly — the architecture-
	// independence property the paper leans on.
	f := func(seed int64) bool {
		recs := []SLRecord{}
		statCal := map[int]float64{}
		statTgt := map[int]float64{}
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>11%100000)/100 + 1
		}
		for sl := 1; sl <= 12; sl++ {
			freq := int(uint64(seed+int64(sl))%5) + 1
			cal := next()
			recs = append(recs, SLRecord{SeqLen: sl, Freq: freq, Stat: cal})
			statCal[sl] = cal
			statTgt[sl] = next()
		}
		sel, err := Select(recs, Options{MaxUniqueNoBinning: 12})
		if err != nil {
			return false
		}
		proj, err := ProjectTotal(sel.Points, statTgt)
		if err != nil {
			return false
		}
		var want float64
		for _, r := range recs {
			want += float64(r.Freq) * statTgt[r.SeqLen]
		}
		return math.Abs(proj-want) <= 1e-9*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickThroughputUpliftConsistency(t *testing.T) {
	// Scaling every iteration time by a constant c scales projected
	// throughput by 1/c, so the projected uplift equals the true one.
	f := func(c8 uint8) bool {
		c := float64(c8%50+150) / 100 // speed factor in [1.5, 2)
		base := map[int]float64{10: 100, 20: 220}
		slow := map[int]float64{10: 100 * c, 20: 220 * c}
		pts := twoPoints()
		thrBase, err1 := ProjectThroughput(pts, base, 64)
		thrSlow, err2 := ProjectThroughput(pts, slow, 64)
		if err1 != nil || err2 != nil {
			return false
		}
		up, err := UpliftPct(thrBase, thrSlow)
		if err != nil {
			return false
		}
		want := (c - 1) * 100
		return math.Abs(up-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
