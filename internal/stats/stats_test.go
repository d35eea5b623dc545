package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSum(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"mixed signs", []float64{1, -2, 3}, 2},
		{"zeros", []float64{0, 0, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Sum(tc.in); got != tc.want {
				t.Errorf("Sum(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		p    float64
		want float64
	}{
		{"single p0", []float64{42}, 0, 42},
		{"single p50", []float64{42}, 50, 42},
		{"single p100", []float64{42}, 100, 42},
		{"p0 is min", []float64{5, 1, 3}, 0, 1},
		{"p100 is max", []float64{5, 1, 3}, 100, 5},
		{"p50 odd", []float64{3, 1, 2}, 50, 2},
		{"p50 even nearest-rank", []float64{4, 1, 3, 2}, 50, 2},
		{"p99 of 100", func() []float64 {
			xs := make([]float64, 100)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			return xs
		}(), 99, 99},
		// Regression: 55/100 is not exactly representable; a naive
		// ceil(p/100*n) lands on rank 56.
		{"p55 of 100 float-exact rank", func() []float64 {
			xs := make([]float64, 100)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			return xs
		}(), 55, 55},
		{"p30 of 10", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 30, 3},
		{"duplicates", []float64{7, 7, 7, 7}, 95, 7},
		{"duplicate tail", []float64{1, 1, 1, 9}, 75, 1},
		{"unsorted input left intact", []float64{9, 2, 5}, 100, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Percentile(tc.in, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tc.in, tc.p, got, tc.want)
			}
		})
	}
}

func TestPercentilesAgreesWithPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 5, 2}
	ps := []float64{0, 25, 50, 55, 95, 100}
	bulk, err := Percentiles(xs, ps...)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		one, err := Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if bulk[i] != one {
			t.Errorf("Percentiles[%v] = %v, Percentile = %v", p, bulk[i], one)
		}
	}
	if _, err := Percentiles(xs, 50, 101); err == nil {
		t.Error("out-of-range p in bulk form should error")
	}
	if _, err := Percentiles(nil, 50); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
}

// TestNearestRankP99Tail proves the property serving's early stop
// rests on: the samples above a p99, n - NearestRank(n, 99), number
// floor(n/100), so they never decrease as n grows, and a smaller sample
// absorbs no more late requests than the whole trace. Checked for every
// n up to 2^22, far past any trace the daemon accepts.
func TestNearestRankP99Tail(t *testing.T) {
	for n := 1; n <= 1<<22; n++ {
		if tail := n - NearestRank(n, 99); tail != n/100 {
			t.Fatalf("n - NearestRank(n, 99) = %d at n = %d, want %d", tail, n, n/100)
		}
	}
}

// TestPercentilesInPlace pins the allocation-free variant's contract:
// same answers as the copying form, xs left a permutation of its input
// (the ranks are selected, so no order is promised), and the same
// error surface.
func TestPercentilesInPlace(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 5, 2}
	in := append([]float64(nil), xs...)
	ps := []float64{0, 25, 50, 55, 95, 100}
	want, err := Percentiles(xs, ps...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PercentilesInPlace(xs, ps...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if got[i] != want[i] {
			t.Errorf("PercentilesInPlace[%v] = %v, Percentiles = %v", ps[i], got[i], want[i])
		}
	}
	if !isPermutation(xs, in) {
		t.Errorf("xs = %v is not a permutation of the input %v", xs, in)
	}
	if _, err := PercentilesInPlace(xs, 50, -1); err == nil {
		t.Error("out-of-range p should error")
	}
	if _, err := PercentilesInPlace(nil, 50); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
}

// Non-finite samples used to silently poison the ranked result: NaN
// sorts to an arbitrary position, so every percentile after it was
// garbage. All three entry points must refuse such input with the
// typed sentinel and name the offending index.
func TestPercentileRejectsNonFinite(t *testing.T) {
	for name, xs := range map[string][]float64{
		"NaN":  {1, math.NaN(), 3},
		"+Inf": {1, 2, math.Inf(1)},
		"-Inf": {math.Inf(-1), 2, 3},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Percentile(append([]float64(nil), xs...), 50); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Percentile error = %v, want ErrNonFinite", err)
			}
			if _, err := Percentiles(append([]float64(nil), xs...), 50, 99); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Percentiles error = %v, want ErrNonFinite", err)
			}
			err := func() error {
				_, err := PercentilesInPlace(append([]float64(nil), xs...), 50)
				return err
			}()
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("PercentilesInPlace error = %v, want ErrNonFinite", err)
			}
			if !strings.Contains(err.Error(), "xs[") {
				t.Errorf("error %q should name the offending index", err)
			}
		})
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Percentile(in, 50); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
	for _, p := range []float64{-1, 101, math.NaN()} {
		if _, err := Percentile([]float64{1}, p); err == nil {
			t.Errorf("Percentile(p=%v) should error", p)
		}
	}
}

func TestMean(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) error = %v, want ErrEmpty", err)
	}
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	got, err := Geomean([]float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 10, 1e-9) {
		t.Errorf("Geomean(1,100) = %v, want 10", got)
	}
	if _, err := Geomean(nil); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
	if _, err := Geomean([]float64{1, 0}); err == nil {
		t.Error("zero sample should error")
	}
	if _, err := Geomean([]float64{-1}); err == nil {
		t.Error("negative sample should error")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"single", []float64{7}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Median(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
	t.Run("does not mutate input", func(t *testing.T) {
		in := []float64{3, 1, 2}
		if _, err := Median(in); err != nil {
			t.Fatal(err)
		}
		if in[0] != 3 || in[1] != 1 || in[2] != 2 {
			t.Errorf("input mutated: %v", in)
		}
	})
}

func TestPercentError(t *testing.T) {
	got, err := PercentError(110, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("PercentError(110,100) = %v, want 10", got)
	}
	got, err = PercentError(90, -100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 190 {
		t.Errorf("PercentError(90,-100) = %v, want 190", got)
	}
	if _, err := PercentError(1, 0); err == nil {
		t.Error("zero actual should error")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = (%v,%v), want (-1,5)", lo, hi)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
}

func TestNormalize(t *testing.T) {
	got, err := Normalize([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Error("all-zero input should error")
	}
}

func TestSpread(t *testing.T) {
	got, err := Spread([]float64{80, 100, 120})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 40, 1e-9) {
		t.Errorf("Spread = %v, want 40", got)
	}
	if _, err := Spread([]float64{0}); err == nil {
		t.Error("zero-mean spread should error")
	}
}

// positiveSamples maps arbitrary quick-generated floats into a bounded
// positive range so statistics stay finite and well-conditioned.
func positiveSamples(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		a := math.Abs(v)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			continue
		}
		out = append(out, 1+math.Mod(a, 1000))
	}
	return out
}

func TestQuickMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := positiveSamples(raw)
		if len(xs) == 0 {
			return true
		}
		m, err := Mean(xs)
		if err != nil {
			return false
		}
		lo, hi, err := MinMax(xs)
		if err != nil {
			return false
		}
		return lo-1e-9 <= m && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGeomeanAtMostMean(t *testing.T) {
	// AM-GM inequality: geometric mean never exceeds arithmetic mean.
	f := func(raw []float64) bool {
		xs := positiveSamples(raw)
		if len(xs) == 0 {
			return true
		}
		gm, err := Geomean(xs)
		if err != nil {
			return false
		}
		am, err := Mean(xs)
		if err != nil {
			return false
		}
		return gm <= am+1e-9*am
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeMaxIsOne(t *testing.T) {
	f := func(raw []float64) bool {
		xs := positiveSamples(raw)
		if len(xs) == 0 {
			return true
		}
		norm, err := Normalize(xs)
		if err != nil {
			return false
		}
		_, hi, err := MinMax(norm)
		if err != nil {
			return false
		}
		return almostEqual(hi, 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
