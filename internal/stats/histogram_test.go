package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramBasic(t *testing.T) {
	h, err := NewHistogram([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Lo != 1 || h.Hi != 10 {
		t.Errorf("bounds = [%d,%d], want [1,10]", h.Lo, h.Hi)
	}
	if got := h.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Errorf("bin %d count = %d, want 2", i, c)
		}
	}
}

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 5); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
	if _, err := NewHistogram([]int{1}, 0); err == nil {
		t.Error("zero bins should error")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h, err := NewHistogram([]int{7, 7, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 3 {
		t.Errorf("Total = %d, want 3", h.Total())
	}
	if h.Counts[0] != 3 {
		t.Errorf("all samples should land in bin 0, got %v", h.Counts)
	}
}

func TestHistogramBinOfClamps(t *testing.T) {
	h, err := NewHistogram([]int{10, 20, 30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.BinOf(-100); got != 0 {
		t.Errorf("BinOf(-100) = %d, want 0", got)
	}
	if got := h.BinOf(1000); got != len(h.Counts)-1 {
		t.Errorf("BinOf(1000) = %d, want last bin", got)
	}
}

func TestHistogramString(t *testing.T) {
	h, err := NewHistogram([]int{1, 1, 2, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Errorf("String() should contain bars: %q", s)
	}
	if lines := strings.Count(s, "\n"); lines != 2 {
		t.Errorf("String() has %d lines, want 2", lines)
	}
}

func TestQuickHistogramConservesSamples(t *testing.T) {
	f := func(raw []int16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int, len(raw))
		for i, v := range raw {
			samples[i] = int(v)
		}
		k := int(kRaw)%20 + 1
		h, err := NewHistogram(samples, k)
		if err != nil {
			return false
		}
		return h.Total() == len(samples)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHistogramBinOfInRange(t *testing.T) {
	f := func(raw []int16, probe int16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int, len(raw))
		for i, v := range raw {
			samples[i] = int(v)
		}
		k := int(kRaw)%20 + 1
		h, err := NewHistogram(samples, k)
		if err != nil {
			return false
		}
		b := h.BinOf(int(probe))
		return b >= 0 && b < len(h.Counts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramDegenerateSpan is the regression test for the bin/edge
// inconsistency: with samples {1,2} and k=4 the old construction
// produced duplicate edges ([1,1,2,2,3]) whose binary search placed 1
// in bin 1 while BinOf's Lo fast path returned bin 0. The bin count is
// now clamped to the integer span, so edges stay strictly increasing
// and both lookup paths agree.
func TestHistogramDegenerateSpan(t *testing.T) {
	h, err := NewHistogram([]int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 2 {
		t.Fatalf("span 2 with k=4 should clamp to 2 bins, got %d", len(h.Counts))
	}
	if got := h.BinOf(1); got != 0 {
		t.Errorf("BinOf(1) = %d, want 0", got)
	}
	if got := h.BinOf(2); got != 1 {
		t.Errorf("BinOf(2) = %d, want 1", got)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("Counts = %v, want [1 1]", h.Counts)
	}
	for i := 1; i < len(h.Edges); i++ {
		if h.Edges[i] <= h.Edges[i-1] {
			t.Errorf("Edges not strictly increasing: %v", h.Edges)
		}
	}
}

func TestHistogramSingleValueSpan(t *testing.T) {
	h, err := NewHistogram([]int{7, 7, 7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 1 {
		t.Fatalf("span 1 should clamp to 1 bin, got %d", len(h.Counts))
	}
	if h.Counts[0] != 3 {
		t.Errorf("Counts = %v, want [3]", h.Counts)
	}
	if h.Edges[0] != 7 || h.Edges[1] != 8 {
		t.Errorf("Edges = %v, want [7 8]", h.Edges)
	}
}

// edgeBinOf assigns v to a bin purely from the edge list: the bin i
// with Edges[i] <= v < Edges[i+1], clamped to the ends. It is the
// reference BinOf must agree with.
func edgeBinOf(h *Histogram, v int) int {
	for i := 0; i < len(h.Counts); i++ {
		if v < h.Edges[i+1] {
			return i
		}
	}
	return len(h.Counts) - 1
}

// TestQuickBinOfAgreesWithEdges property-checks that BinOf and the
// edge list define the same binning for every sample of random inputs,
// including degenerate spans (narrow int16 ranges with k up to 20).
func TestQuickBinOfAgreesWithEdges(t *testing.T) {
	f := func(raw []int16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int, len(raw))
		for i, v := range raw {
			samples[i] = int(v)
		}
		k := int(kRaw)%20 + 1
		h, err := NewHistogram(samples, k)
		if err != nil {
			return false
		}
		if len(h.Counts) > k {
			return false
		}
		for i := 1; i < len(h.Edges); i++ {
			if h.Edges[i] <= h.Edges[i-1] {
				return false
			}
		}
		for _, s := range samples {
			if h.BinOf(s) != edgeBinOf(h, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBinOfAgreesWithEdgesNarrow drives the same agreement over every
// value of small dense domains, where the old construction failed.
func TestBinOfAgreesWithEdgesNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(50)
		span := 1 + rng.Intn(6)
		k := 1 + rng.Intn(12)
		var samples []int
		for v := lo; v < lo+span; v++ {
			samples = append(samples, v)
		}
		h, err := NewHistogram(samples, k)
		if err != nil {
			t.Fatal(err)
		}
		for v := lo; v < lo+span; v++ {
			if got, want := h.BinOf(v), edgeBinOf(h, v); got != want {
				t.Fatalf("lo=%d span=%d k=%d: BinOf(%d)=%d, edges say %d (edges %v)",
					lo, span, k, v, got, want, h.Edges)
			}
		}
	}
}

func TestMedianInt(t *testing.T) {
	got, err := MedianInt([]int{9, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("MedianInt = %d, want 5", got)
	}
	if _, err := MedianInt(nil); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
}

func TestUniqueInts(t *testing.T) {
	got := UniqueInts([]int{3, 1, 3, 2, 1})
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("UniqueInts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("UniqueInts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	fit, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 3, 1e-9) || !almostEqual(fit.Intercept, 7, 1e-9) {
		t.Errorf("fit = %+v, want slope 3 intercept 7", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitNoisyLineR2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+5+rng.NormFloat64()*0.5)
	}
	fit, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %v, want > 0.999 for low-noise line", fit.R2)
	}
	if !almostEqual(fit.Slope, 2, 0.01) {
		t.Errorf("slope = %v, want ~2", fit.Slope)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1, 2}); err != ErrMismatch {
		t.Errorf("mismatch error = %v, want ErrMismatch", err)
	}
	if _, err := Fit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := Fit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("constant x should error")
	}
}

func TestFitConstantY(t *testing.T) {
	fit, err := Fit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 0, 1e-12) || !almostEqual(fit.Intercept, 5, 1e-12) {
		t.Errorf("fit = %+v, want flat line at 5", fit)
	}
	if fit.R2 != 1 {
		t.Errorf("R2 = %v, want 1 for perfectly explained constant", fit.R2)
	}
}
