package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// fuzzPs are the percentiles FuzzPercentilesInPlace checks: both ends,
// the quartile and median, and the serving tails.
var fuzzPs = []float64{0, 25, 50, 95, 99, 100}

// FuzzPercentilesInPlace holds rank selection to sorting: every
// percentile of fuzzPs must equal the nearest-rank sample of a
// sort.Float64s copy of the input, and xs must come back a permutation
// of the input. The reference ranks are integer arithmetic here, not
// NearestRank, and the sort is the test's own, since Percentiles itself
// selects through PercentilesInPlace.
func FuzzPercentilesInPlace(f *testing.F) {
	ramp := make([]float64, 100)
	for i := range ramp {
		ramp[i] = float64(i - 50)
	}
	reversed := slices.Clone(ramp)
	slices.Reverse(reversed)
	dups := make([]float64, 100)
	for i := range dups {
		dups[i] = float64(i % 3)
	}
	zeros := make([]float64, 64)
	for i := range zeros {
		if i%2 == 0 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	for _, seed := range [][]float64{
		{42},
		{3, -1, 2},
		ramp,
		reversed,
		dups,
		zeros,
		append(append(slices.Clone(ramp[:40]), reversed[:40]...), dups[:40]...),
		medianOfThreeKiller(256),
	} {
		f.Add(encodeFloats(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFloats(data)
		if len(in) == 0 {
			return
		}
		ref := slices.Clone(in)
		sort.Float64s(ref)
		xs := slices.Clone(in)
		got, err := PercentilesInPlace(xs, fuzzPs...)
		if err != nil {
			t.Fatal(err)
		}
		n := len(in)
		for i, p := range fuzzPs {
			// Nearest rank: ceil(p·n/100), at least 1. Every p here is
			// an integer, so the ceiling is exact in integer arithmetic.
			rank := max((int(p)*n+99)/100, 1)
			if want := ref[rank-1]; got[i] != want {
				t.Fatalf("p%v of %d samples = %v, sorted reference %v", p, n, got[i], want)
			}
		}
		if !isPermutation(xs, in) {
			t.Fatalf("xs is not a permutation of the %d-sample input", n)
		}
	})
}

// isPermutation reports whether a and b hold the same samples, bit for
// bit (so -0 and +0 are told apart), in any order.
func isPermutation(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	bitsOf := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(bitsOf(a), bitsOf(b))
}

// encodeFloats and decodeFloats map samples to fuzz bytes and back,
// two little-endian bytes a sample: an int16 sample value, with
// math.MinInt16 standing for -0. Ranking depends only on order, and a
// narrow range makes duplicates common and keeps inputs short enough
// for the fuzzer to minimize. encodeFloats takes only samples that
// decode back exactly; a short tail is dropped on decoding.
func encodeFloats(xs []float64) []byte {
	out := make([]byte, 2*len(xs))
	for i, x := range xs {
		v := int16(x)
		if x == 0 && math.Signbit(x) {
			v = math.MinInt16
		}
		binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
	}
	return out
}

func decodeFloats(data []byte) []float64 {
	out := make([]float64, len(data)/2)
	for i := range out {
		v := int16(binary.LittleEndian.Uint16(data[2*i:]))
		if v == math.MinInt16 {
			out[i] = math.Copysign(0, -1)
		} else {
			out[i] = float64(v)
		}
	}
	return out
}

// medianOfThreeKiller returns n distinct samples on which selecting
// fuzzPs in ascending order defeats the median-of-three pivot. It
// replays the swaps partition makes on index labels and assigns each
// range's first and middle samples the two smallest values still free,
// so every pivot is the range's second smallest and a partition peels
// off two samples. The first selection (rank 0) ends after one
// partition; the second (rank ⌈n/4⌉-1) then peels two at a time until
// its partition budget runs out, so the run reaches the sort fallback
// once n/4 exceeds twice that budget.
func medianOfThreeKiller(n int) []float64 {
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	vals := make([]float64, n)
	assigned := make([]bool, n)
	next := 0.0
	assign := func(pos int) {
		if l := label[pos]; !assigned[l] {
			vals[l], assigned[l] = next, true
			next++
		}
	}
	swap := func(a, b int) { label[a], label[b] = label[b], label[a] }
	peel := func(lo, hi int) {
		mid := lo + (hi-lo)/2
		assign(lo)
		assign(mid)
		// partition parks the pivot at hi-2, stops its scans at lo+1 and
		// lo, and swaps the pivot into lo+1.
		swap(mid, hi-2)
		swap(lo+1, hi-2)
	}
	peel(0, n)
	for lo := 1; n-lo > selectCutoff; lo += 2 {
		peel(lo, n)
	}
	for pos := range label {
		assign(pos)
	}
	return vals
}
