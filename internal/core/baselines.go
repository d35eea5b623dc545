package core

import (
	"fmt"
	"sort"
)

// Baselines the paper evaluates SeqPoint against (Section VI-C).
//
// The single-iteration strategies (frequent, median, worst) follow prior
// work's use of one iteration as a proxy for the whole run, upgraded
// with the SL insight: each picks one sequence length and projects the
// epoch as that iteration's statistic times the epoch's iteration count.
// They are expressed as a one-point Selection so the projection helpers
// apply uniformly.
//
// The `prior` strategy reproduces the sampling approach of Zhu et al.
// (IISWC'18): profile a fixed number of contiguous iterations after a
// warm-up period, in epoch execution order, and scale up the average.

// singlePoint wraps one SL as a selection covering all epoch iterations.
func singlePoint(recs []SLRecord, sl int) Selection {
	var totalIters float64
	var stat float64
	for _, r := range recs {
		totalIters += float64(r.Freq)
		if r.SeqLen == sl {
			stat = r.Stat
		}
	}
	points := []SeqPoint{{SeqLen: sl, Weight: totalIters, Stat: stat}}
	actual := epochTotal(recs)
	proj := projectTotal(points)
	return Selection{
		Points:        points,
		ProjectedStat: proj,
		ActualStat:    actual,
		ErrorPct:      pctErr(proj, actual),
	}
}

// Frequent selects the most frequently occurring sequence length — the
// iteration most likely picked by random selection.
func Frequent(records []SLRecord) (Selection, error) {
	recs, err := normalizeRecords(records)
	if err != nil {
		return Selection{}, err
	}
	if len(recs) == 0 {
		return Selection{}, ErrNoRecords
	}
	best := recs[0]
	for _, r := range recs[1:] {
		if r.Freq > best.Freq {
			best = r
		}
	}
	return singlePoint(recs, best.SeqLen), nil
}

// Median selects the iteration with the (frequency-weighted) median
// sequence length.
func Median(records []SLRecord) (Selection, error) {
	recs, err := normalizeRecords(records)
	if err != nil {
		return Selection{}, err
	}
	if len(recs) == 0 {
		return Selection{}, ErrNoRecords
	}
	var total int
	for _, r := range recs {
		total += r.Freq
	}
	mid := total / 2
	cum := 0
	for _, r := range recs {
		cum += r.Freq
		if cum > mid {
			return singlePoint(recs, r.SeqLen), nil
		}
	}
	return singlePoint(recs, recs[len(recs)-1].SeqLen), nil
}

// Worst selects the sequence length whose single-iteration projection
// has the largest error — the paper's bound on how badly an arbitrary
// single-iteration choice can go.
func Worst(records []SLRecord) (Selection, error) {
	recs, err := normalizeRecords(records)
	if err != nil {
		return Selection{}, err
	}
	if len(recs) == 0 {
		return Selection{}, ErrNoRecords
	}
	worstSL := recs[0].SeqLen
	worstErr := -1.0
	for _, r := range recs {
		if e := singlePoint(recs, r.SeqLen).ErrorPct; e > worstErr {
			worstErr = e
			worstSL = r.SeqLen
		}
	}
	return singlePoint(recs, worstSL), nil
}

// DefaultPriorSampleCount is the `prior` baseline's sample size as in
// the paper: 50 contiguous iterations after a fixed warm-up.
const DefaultPriorSampleCount = 50

// Prior samples `count` contiguous iterations starting after `warmup`
// iterations of the epoch, in execution order, and represents the epoch
// by scaling their SL mix up to the full iteration count. epochSLs is
// the epoch's iteration SL sequence in execution order; statBySL gives
// the per-iteration statistic on the calibration config.
//
// Because the sample is a contiguous chunk of the execution order, its
// representativeness depends on how the data pipeline ordered the epoch
// — the effect the paper demonstrates with DS2's sorted first epoch.
func Prior(epochSLs []int, statBySL map[int]float64, warmup, count int) (Selection, error) {
	if warmup < 0 || count <= 0 {
		return Selection{}, fmt.Errorf("core: invalid prior sampling warmup=%d count=%d", warmup, count)
	}
	if warmup+count > len(epochSLs) {
		return Selection{}, fmt.Errorf("core: prior sample [%d,%d) exceeds epoch length %d",
			warmup, warmup+count, len(epochSLs))
	}
	sample := epochSLs[warmup : warmup+count]

	// Scale the sampled SL mix up to the whole epoch: each sampled
	// iteration stands for totalIters/count iterations.
	scale := float64(len(epochSLs)) / float64(count)
	freq := make(map[int]int)
	for _, sl := range sample {
		freq[sl]++
	}
	sls := make([]int, 0, len(freq))
	for sl := range freq {
		sls = append(sls, sl)
	}
	sort.Ints(sls)

	points := make([]SeqPoint, 0, len(sls))
	for _, sl := range sls {
		stat, ok := statBySL[sl]
		if !ok {
			return Selection{}, fmt.Errorf("%w: SL %d", ErrStatMissing, sl)
		}
		points = append(points, SeqPoint{
			SeqLen: sl,
			Weight: float64(freq[sl]) * scale,
			Stat:   stat,
		})
	}

	var actual float64
	for _, sl := range epochSLs {
		stat, ok := statBySL[sl]
		if !ok {
			return Selection{}, fmt.Errorf("%w: SL %d", ErrStatMissing, sl)
		}
		actual += stat
	}
	proj := projectTotal(points)
	return Selection{
		Points:        points,
		ProjectedStat: proj,
		ActualStat:    actual,
		ErrorPct:      pctErr(proj, actual),
	}, nil
}

// MethodName identifies a selection strategy in experiment reports.
type MethodName string

// The five strategies of Figs 11-16.
const (
	MethodWorst    MethodName = "worst"
	MethodFrequent MethodName = "frequent"
	MethodMedian   MethodName = "median"
	MethodPrior    MethodName = "prior"
	MethodSeqPoint MethodName = "seqpoint"
)

// AllMethods lists the strategies in the paper's plotting order.
func AllMethods() []MethodName {
	return []MethodName{MethodWorst, MethodFrequent, MethodMedian, MethodPrior, MethodSeqPoint}
}
