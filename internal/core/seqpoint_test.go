package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// linearRecords builds records whose stat is a*SL + b — the near-linear
// regime the paper observes (Fig. 9).
func linearRecords(sls []int, freq func(sl int) int, a, b float64) []SLRecord {
	recs := make([]SLRecord, len(sls))
	for i, sl := range sls {
		recs[i] = SLRecord{SeqLen: sl, Freq: freq(sl), Stat: a*float64(sl) + b}
	}
	return recs
}

func rangeSLs(lo, hi, step int) []int {
	var out []int
	for sl := lo; sl <= hi; sl += step {
		out = append(out, sl)
	}
	return out
}

func TestSelectEmpty(t *testing.T) {
	if _, err := Select(nil, Options{}); !errors.Is(err, ErrNoRecords) {
		t.Errorf("error = %v, want ErrNoRecords", err)
	}
}

func TestSelectFewUniqueTakesAll(t *testing.T) {
	// n-threshold path (Fig. 10 step: unique <= n => all SLs).
	recs := linearRecords([]int{10, 20, 30}, func(int) int { return 5 }, 2, 1)
	sel, err := Select(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Binned {
		t.Error("3 unique SLs should skip binning")
	}
	if len(sel.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(sel.Points))
	}
	for i, p := range sel.Points {
		if p.Weight != 5 {
			t.Errorf("point %d weight = %v, want 5", i, p.Weight)
		}
	}
	if sel.ErrorPct != 0 {
		t.Errorf("taking all SLs projects exactly; error = %v", sel.ErrorPct)
	}
}

func TestSelectRespectsCustomN(t *testing.T) {
	recs := linearRecords(rangeSLs(10, 100, 10), func(int) int { return 1 }, 1, 0)
	sel, err := Select(recs, Options{MaxUniqueNoBinning: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Binned {
		t.Error("10 unique SLs with n=10 should take all")
	}
	sel2, err := Select(recs, Options{MaxUniqueNoBinning: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sel2.Binned {
		t.Error("10 unique SLs with n=5 should bin")
	}
}

func TestSelectBinnedLinearIsAccurate(t *testing.T) {
	// With stat linear in SL and uniform frequencies, binning with the
	// nearest-to-average representative is near-exact.
	recs := linearRecords(rangeSLs(1, 200, 1), func(int) int { return 3 }, 5, 100)
	sel, err := Select(recs, Options{ErrorThresholdPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Binned {
		t.Error("200 unique SLs should bin")
	}
	if sel.ErrorPct > 1.0 {
		t.Errorf("self error = %v%%, want <= threshold 1%%", sel.ErrorPct)
	}
	if len(sel.Points) > 20 {
		t.Errorf("selected %d points; near-linear stats should need few bins", len(sel.Points))
	}
}

func TestSelectWeightsCoverEpoch(t *testing.T) {
	recs := linearRecords(rangeSLs(1, 150, 1), func(sl int) int { return sl%7 + 1 }, 2, 10)
	var totalIters float64
	for _, r := range recs {
		totalIters += float64(r.Freq)
	}
	sel, err := Select(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalWeight(sel.Points); math.Abs(got-totalIters) > 1e-9 {
		t.Errorf("total weight = %v, want epoch iteration count %v", got, totalIters)
	}
}

func TestSelectAutoKGrowsUntilThreshold(t *testing.T) {
	// A staircase stat breaks linearity, forcing k past the initial 5.
	sls := rangeSLs(1, 100, 1)
	recs := make([]SLRecord, len(sls))
	for i, sl := range sls {
		stat := float64(sl)
		if sl%10 == 0 {
			stat *= 4 // spikes
		}
		recs[i] = SLRecord{SeqLen: sl, Freq: 1, Stat: stat}
	}
	loose, err := Select(recs, Options{ErrorThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Select(recs, Options{ErrorThresholdPct: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Bins <= loose.Bins {
		t.Errorf("tighter threshold should need more bins: %d vs %d", tight.Bins, loose.Bins)
	}
	if tight.ErrorPct > 0.01 && tight.Bins < len(recs) {
		t.Errorf("auto-k stopped early: err=%v bins=%d", tight.ErrorPct, tight.Bins)
	}
}

func TestSelectMaxBinsExactProjection(t *testing.T) {
	// With MaxBins = unique SLs, each SL can be its own bin: exact.
	recs := linearRecords(rangeSLs(1, 50, 1), func(int) int { return 2 }, 3, 7)
	sel, err := Select(recs, Options{ErrorThresholdPct: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if sel.ErrorPct > 1e-9 {
		t.Errorf("exhaustive binning should be exact, err = %v", sel.ErrorPct)
	}
}

func TestSelectMaxBinsCapReturnsBest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sls := rangeSLs(1, 100, 1)
	recs := make([]SLRecord, len(sls))
	for i, sl := range sls {
		recs[i] = SLRecord{SeqLen: sl, Freq: 1, Stat: rng.Float64() * 1000}
	}
	sel, err := Select(recs, Options{ErrorThresholdPct: 1e-9, MaxBins: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Bins > 8 {
		t.Errorf("bins = %d exceeds MaxBins 8", sel.Bins)
	}
}

// TestSelectInitialBinsAboveCap: a starting k above the SL span, or
// above an explicit MaxBins, starts the refinement at the cap instead of
// skipping it and returning an empty selection. At k = span every SL
// sits in its own bin, so the projection is exact.
func TestSelectInitialBinsAboveCap(t *testing.T) {
	recs := linearRecords(rangeSLs(10, 39, 1), func(sl int) int { return 1 + sl%3 }, 3, 7)
	iterations := 0
	for _, r := range recs {
		iterations += r.Freq
	}
	for _, tc := range []struct {
		name     string
		opts     Options
		wantBins int
	}{
		{"k above span", Options{InitialBins: 1000}, 30},
		{"k above max bins", Options{InitialBins: 12, MaxBins: 8}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := Select(recs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Bins != tc.wantBins || !sel.Binned {
				t.Fatalf("bins = %d (binned %v), want %d", sel.Bins, sel.Binned, tc.wantBins)
			}
			weight := 0.0
			for _, p := range sel.Points {
				weight += p.Weight
			}
			if weight != float64(iterations) {
				t.Errorf("weights sum to %v over %d points, want the epoch's %d iterations", weight, len(sel.Points), iterations)
			}
			if tc.wantBins == 30 && (len(sel.Points) != len(recs) || sel.ErrorPct > 1e-9) {
				t.Errorf("k = span: %d points at %v%% error, want all %d SLs, exact", len(sel.Points), sel.ErrorPct, len(recs))
			}
		})
	}
}

func TestSelectMergesDuplicateRecords(t *testing.T) {
	recs := []SLRecord{
		{SeqLen: 10, Freq: 2, Stat: 5},
		{SeqLen: 10, Freq: 3, Stat: 5},
		{SeqLen: 20, Freq: 1, Stat: 9},
	}
	sel, err := Select(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Points) != 2 {
		t.Fatalf("points = %d, want 2 (duplicates merged)", len(sel.Points))
	}
	if sel.Points[0].Weight != 5 {
		t.Errorf("merged weight = %v, want 5", sel.Points[0].Weight)
	}
}

func TestSelectRejectsBadRecords(t *testing.T) {
	bad := [][]SLRecord{
		{{SeqLen: 0, Freq: 1, Stat: 1}},
		{{SeqLen: -5, Freq: 1, Stat: 1}},
		{{SeqLen: 1, Freq: 0, Stat: 1}},
		{{SeqLen: 1, Freq: 1, Stat: -1}},
		{{SeqLen: 1, Freq: 1, Stat: math.NaN()}},
		{{SeqLen: 1, Freq: 1, Stat: math.Inf(1)}},
		{{SeqLen: 1, Freq: 1, Stat: 2}, {SeqLen: 1, Freq: 1, Stat: 3}}, // conflicting
	}
	for i, recs := range bad {
		if _, err := Select(recs, Options{}); err == nil {
			t.Errorf("case %d should be rejected", i)
		}
	}
}

func TestSelectPointsSortedAndInRange(t *testing.T) {
	recs := linearRecords(rangeSLs(5, 500, 5), func(sl int) int { return sl%3*10%7*2%5*3%11 + 1 }, 1.5, 20)
	sel, err := Select(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sel.Points); i++ {
		if sel.Points[i].SeqLen <= sel.Points[i-1].SeqLen {
			t.Error("points should be ordered by SL")
		}
	}
	for _, p := range sel.Points {
		if p.SeqLen < 5 || p.SeqLen > 500 {
			t.Errorf("point SL %d outside record range", p.SeqLen)
		}
	}
}

func TestSelectRepresentativeIsBinMember(t *testing.T) {
	// Every SeqPoint's stat must equal the logged stat of its SL: the
	// representative is a real iteration, not an average.
	recs := linearRecords(rangeSLs(1, 300, 2), func(int) int { return 1 }, 2, 5)
	statBySL := make(map[int]float64)
	for _, r := range recs {
		statBySL[r.SeqLen] = r.Stat
	}
	sel, err := Select(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sel.Points {
		want, ok := statBySL[p.SeqLen]
		if !ok {
			t.Errorf("SeqPoint SL %d not in the log", p.SeqLen)
			continue
		}
		if p.Stat != want {
			t.Errorf("SeqPoint SL %d stat %v != logged %v", p.SeqLen, p.Stat, want)
		}
	}
}

func TestQuickSelectInvariants(t *testing.T) {
	// For arbitrary valid logs: selection succeeds, weights cover the
	// epoch, points come from the log, and error is finite.
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)%150 + 1
		seen := make(map[int]bool)
		var recs []SLRecord
		for len(recs) < n {
			sl := rng.Intn(500) + 1
			if seen[sl] {
				continue
			}
			seen[sl] = true
			recs = append(recs, SLRecord{
				SeqLen: sl,
				Freq:   rng.Intn(20) + 1,
				Stat:   rng.Float64()*1e6 + 1,
			})
		}
		var iters float64
		for _, r := range recs {
			iters += float64(r.Freq)
		}
		sel, err := Select(recs, Options{})
		if err != nil {
			return false
		}
		if math.Abs(TotalWeight(sel.Points)-iters) > 1e-6*iters {
			return false
		}
		statBySL := make(map[int]float64)
		for _, r := range recs {
			statBySL[r.SeqLen] = r.Stat
		}
		for _, p := range sel.Points {
			if statBySL[p.SeqLen] != p.Stat {
				return false
			}
		}
		return !math.IsNaN(sel.ErrorPct) && !math.IsInf(sel.ErrorPct, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickSelectErrorUnderThresholdOrExhaustive(t *testing.T) {
	// The auto-k loop guarantee: either the error threshold is met or
	// binning has gone exhaustive (every SL its own bin => exact).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 20
		recs := make([]SLRecord, 0, n)
		seen := map[int]bool{}
		for len(recs) < n {
			sl := rng.Intn(400) + 1
			if seen[sl] {
				continue
			}
			seen[sl] = true
			recs = append(recs, SLRecord{SeqLen: sl, Freq: rng.Intn(9) + 1, Stat: rng.Float64()*100 + 1})
		}
		sel, err := Select(recs, Options{ErrorThresholdPct: 2})
		if err != nil {
			return false
		}
		span := 400 // SLs drawn from [1,400]
		return sel.ErrorPct <= 2 || sel.Bins >= span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(100)
	if o.MaxUniqueNoBinning != DefaultMaxUniqueNoBinning {
		t.Errorf("n = %d", o.MaxUniqueNoBinning)
	}
	if o.InitialBins != DefaultInitialBins {
		t.Errorf("k = %d", o.InitialBins)
	}
	if o.ErrorThresholdPct != DefaultErrorThresholdPct {
		t.Errorf("e = %v", o.ErrorThresholdPct)
	}
	if o.MaxBins != 100 {
		t.Errorf("MaxBins = %d, want the SL span", o.MaxBins)
	}
	// MaxBins larger than the unique count clamps.
	o2 := Options{MaxBins: 1000}.withDefaults(10)
	if o2.MaxBins != 10 {
		t.Errorf("MaxBins = %d, want clamp to 10", o2.MaxBins)
	}
}
