package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram is a fixed-width binning of integer-valued samples (sequence
// lengths, in this codebase). It backs the paper's Fig. 7 and is also the
// primitive the SeqPoint binning step (Fig. 10, step 2) builds on.
type Histogram struct {
	// Lo and Hi are the inclusive bounds of the binned domain.
	Lo, Hi int
	// Counts holds one entry per bin.
	Counts []int
	// Edges holds len(Counts)+1 bin boundaries; bin i covers
	// [Edges[i], Edges[i+1]) except the last bin, which is inclusive.
	Edges []int
}

// NewHistogram bins the samples into k equal-width bins spanning
// [min(samples), max(samples)]. k must be positive and samples
// non-empty. When the integer span of the samples is narrower than k,
// the bin count is clamped to the span: more bins than distinct
// representable values would force duplicate edges, and with them bin
// assignments that disagree between the edge list and BinOf. Callers
// therefore always get len(Counts) <= k strictly increasing edges.
func NewHistogram(samples []int, k int) (*Histogram, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	if k <= 0 {
		return nil, fmt.Errorf("stats: bin count must be positive, got %d", k)
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples[1:] {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	span := hi - lo + 1
	if k > span {
		k = span
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, k), Edges: make([]int, k+1)}
	for i := 0; i <= k; i++ {
		h.Edges[i] = lo + i*span/k
	}
	h.Edges[k] = hi + 1 // half-open top edge
	for _, s := range samples {
		h.Counts[h.BinOf(s)]++
	}
	return h, nil
}

// BinOf returns the bin index that value v falls into. Values outside
// [Lo, Hi] clamp to the first or last bin.
func (h *Histogram) BinOf(v int) int {
	if v <= h.Lo {
		return 0
	}
	if v >= h.Hi {
		return len(h.Counts) - 1
	}
	// Binary search over edges: the largest i with Edges[i] <= v.
	i := sort.Search(len(h.Edges), func(i int) bool { return h.Edges[i] > v }) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Total returns the number of binned samples.
func (h *Histogram) Total() int {
	var t int
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// String renders a compact ASCII view: one line per bin with a bar chart,
// handy for cmd/experiments output.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		hiEdge := h.Edges[i+1] - 1
		bar := 0
		if maxCount > 0 {
			bar = c * 40 / maxCount
		}
		fmt.Fprintf(&b, "[%4d-%4d] %6d %s\n", h.Edges[i], hiEdge, c, strings.Repeat("#", bar))
	}
	return b.String()
}

// MedianInt returns the frequency-weighted median of the samples: the
// value at the midpoint of the sorted sample list. This is the "median"
// baseline's selection rule.
func MedianInt(samples []int) (int, error) {
	if len(samples) == 0 {
		return 0, ErrEmpty
	}
	cp := append([]int(nil), samples...)
	sort.Ints(cp)
	return cp[len(cp)/2], nil
}

// UniqueInts returns the sorted distinct values in samples.
func UniqueInts(samples []int) []int {
	seen := make(map[int]struct{}, len(samples))
	var out []int
	for _, s := range samples {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}
