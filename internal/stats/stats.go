// Package stats provides the small set of descriptive statistics the
// SeqPoint methodology and its evaluation need: means (plain, weighted,
// geometric), medians, percent errors, histograms, and least-squares
// linear fits (used to verify the near-linear runtime-vs-sequence-length
// relationship the paper's Fig. 9 shows).
//
// All functions are pure and operate on float64 slices; callers own any
// copying. Functions that cannot produce a meaningful result for empty
// input return an error rather than a silent zero so that experiment
// harnesses fail loudly.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// ErrMismatch is returned when paired inputs have different lengths.
var ErrMismatch = errors.New("stats: input length mismatch")

// ErrNonFinite is returned by the percentile functions when a sample is
// NaN or infinite. Go's sort is not a total order over NaN, so ranking
// such inputs would be order-unstable — a silent determinism hazard —
// and a non-finite latency is always an upstream bug worth surfacing.
var ErrNonFinite = errors.New("stats: non-finite sample")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Geomean returns the geometric mean of xs. All samples must be
// positive; the paper reports projection errors as geomeans across
// hardware configurations.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geomean requires positive samples")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Median returns the median of xs without modifying the input.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2], nil
	}
	return (cp[n/2-1] + cp[n/2]) / 2, nil
}

// Percentile returns the p-th percentile of xs (0 <= p <= 100) by the
// nearest-rank method: the smallest sample such that at least p percent
// of the samples are less than or equal to it. p = 0 returns the
// minimum, p = 100 the maximum, and a single sample is every
// percentile of itself. The input is not modified. Serving-latency
// tails (p50/p95/p99) are reported through this.
func Percentile(xs []float64, p float64) (float64, error) {
	out, err := Percentiles(xs, p)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Percentiles returns the nearest-rank percentile for each p, ranking
// one copy of the input once — the bulk form tail roll-ups (p50, p95,
// p99 over the same samples) should use.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	cp := append([]float64(nil), xs...)
	return PercentilesInPlace(cp, ps...)
}

// PercentilesInPlace is Percentiles without the defensive copy: it
// reorders xs in place and reads every rank from that one scratch
// slice. Callers that already own a throwaway sample buffer (the
// serving summaries build per-request latency slices only to rank
// them) use this to avoid duplicating million-element slices on the
// hot path. Each rank is selected, not sorted for: the ranks are
// placed in ascending order, each by an introselect over the part of
// xs to the right of the previous one, so a few ranks of n samples
// cost O(n) expected and O(n log n) at worst. xs ends up a permutation
// of its input, in no documented order. Non-finite samples are
// rejected with ErrNonFinite before any rank is placed: comparisons
// are not a total order over NaN, so a rank read past one would vary
// with the input's order.
func PercentilesInPlace(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: xs[%d] = %v", ErrNonFinite, i, x)
		}
	}
	// ranks holds each p's 0-based position; the array keeps the usual
	// handful of ps off the heap.
	var rankBuf [8]int
	ranks := rankBuf[:0]
	for _, p := range ps {
		if p < 0 || p > 100 || math.IsNaN(p) {
			return nil, fmt.Errorf("stats: percentile %v outside [0, 100]", p)
		}
		ranks = append(ranks, NearestRank(len(xs), p)-1)
	}
	// Place the ranks in ascending order. Selecting k leaves xs[:k] <=
	// xs[k] <= xs[k+1:], so each later rank is selected in xs[lo:] alone
	// and an earlier placement never moves again.
	for lo := 0; ; {
		k := len(xs)
		for _, r := range ranks {
			if r >= lo && r < k {
				k = r
			}
		}
		if k == len(xs) {
			break
		}
		selectRank(xs[lo:], k-lo)
		lo = k + 1
	}
	out := make([]float64, len(ps))
	for i, r := range ranks {
		out[i] = xs[r]
	}
	return out, nil
}

// selectCutoff is the range length at or below which selectRank
// finishes with an insertion sort.
const selectCutoff = 16

// selectRank reorders xs so that xs[k] holds the value sort.Float64s
// would put there, with xs[:k] <= xs[k] <= xs[k+1:]. It is introselect:
// quickselect on median-of-three pivots, an insertion sort on short
// ranges, and, once about 2·log2(n) partitions have not finished the
// job (input built to defeat the pivot rule), sort.Float64s on the
// range still open, so no input costs more than O(n log n). xs must
// hold no NaN.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > selectCutoff; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		p := partition(xs, lo, hi)
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// partition splits xs[lo:hi] (at least three samples) around the
// median of its first, middle and last samples and returns the pivot's
// final index p: xs[lo:p] <= xs[p] <= xs[p+1:hi]. Both scans stop on
// samples equal to the pivot, so runs of duplicates split evenly
// instead of degrading to one-sided partitions.
func partition(xs []float64, lo, hi int) int {
	mid, last := lo+(hi-lo)/2, hi-1
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[last] < xs[lo] {
		xs[last], xs[lo] = xs[lo], xs[last]
	}
	if xs[last] < xs[mid] {
		xs[last], xs[mid] = xs[mid], xs[last]
	}
	// xs[lo] <= pivot <= xs[last] now bound both scans; the pivot waits
	// at last-1 until its final slot is known.
	pivot := xs[mid]
	xs[mid], xs[last-1] = xs[last-1], xs[mid]
	i, j := lo, last-1
	for {
		for i++; xs[i] < pivot; i++ {
		}
		for j--; xs[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
	xs[i], xs[last-1] = xs[last-1], xs[i]
	return i
}

// NearestRank maps a percentile onto the 1-based rank the percentile
// functions read in a sorted n-sample list (n >= 1), so a caller can
// reason about a percentile before the samples exist: the p99 exceeds
// a cap exactly when more than n - NearestRank(n, 99) samples do. p*n
// is computed before dividing (p*n/100 is exact whenever p*n is,
// unlike p/100 which already rounds — e.g. 55/100), and representation
// noise is shaved before the ceil so a rank that is an integer up to
// float error stays that integer.
func NearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// PercentError returns |predicted-actual| / actual * 100. The actual
// value must be nonzero.
func PercentError(predicted, actual float64) (float64, error) {
	if actual == 0 {
		return 0, errors.New("stats: percent error undefined for zero actual")
	}
	return math.Abs(predicted-actual) / math.Abs(actual) * 100, nil
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Normalize returns xs scaled so its maximum is 1. Used when plotting
// normalized per-iteration statistics (Fig. 3, Fig. 4 style).
func Normalize(xs []float64) ([]float64, error) {
	_, max, err := MinMax(xs)
	if err != nil {
		return nil, err
	}
	if max == 0 {
		return nil, errors.New("stats: cannot normalize all-zero input")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / max
	}
	return out, nil
}

// Spread returns (max-min)/mean * 100: the percent spread across a set
// of samples. The paper quotes ~24-27% spreads across iterations for the
// counters in Fig. 4.
func Spread(xs []float64) (float64, error) {
	min, max, err := MinMax(xs)
	if err != nil {
		return 0, err
	}
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, errors.New("stats: spread undefined for zero mean")
	}
	return (max - min) / m * 100, nil
}
