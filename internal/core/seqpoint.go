// Package core implements the SeqPoint methodology — the paper's
// contribution. Given the architecture-independent log of one training
// epoch (each unique input sequence length, how many iterations ran at
// it, and the runtime — or any other statistic — of one such iteration),
// it selects a small set of representative sequence lengths
// ("SeqPoints") with weights, such that the weighted sum of per-SeqPoint
// statistics projects whole-training-run behaviour.
//
// Mechanism (paper Fig. 10):
//
//  1. Log stat per unique sequence length (SL) from one epoch.
//  2. If the number of unique SLs is at most the threshold n, every
//     unique SL is a SeqPoint. Otherwise bin SLs into k contiguous
//     ranges (k starts at 5).
//  3. From each bin pick the SL whose stat is closest to the bin's
//     (frequency-weighted) average stat.
//  4. Weight each SeqPoint by its bin's iteration population.
//  5. Project the epoch statistic as the weighted sum (Equation 1).
//  6. If the self-projection error exceeds the threshold e, increment k
//     and repeat from 2.
//
// The package also implements the baselines the paper evaluates against
// (frequent, median, worst, prior) and the k-means clustering
// alternative of Section VII-C.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// SLRecord is the per-unique-sequence-length log entry from one training
// epoch: step 1 of the mechanism.
type SLRecord struct {
	// SeqLen is the padded sequence length.
	SeqLen int
	// Freq is the number of iterations at this SL in the epoch.
	Freq int
	// Stat is the statistic of one iteration at this SL on the
	// calibration configuration (typically runtime in microseconds; any
	// statistic that varies with SL works — Section V-C).
	Stat float64
}

// SeqPoint is one selected representative.
type SeqPoint struct {
	// SeqLen is the representative sequence length to profile.
	SeqLen int
	// Weight is the number of epoch iterations the SeqPoint stands for.
	Weight float64
	// Stat is the calibration-config statistic of the representative.
	Stat float64
	// Bin is the index of the bin this SeqPoint represents.
	Bin int
}

// Options tune the selection; zero values take the paper's defaults.
type Options struct {
	// MaxUniqueNoBinning is n: if the epoch has at most this many
	// unique SLs, all of them become SeqPoints. Paper default: 10.
	MaxUniqueNoBinning int
	// InitialBins is the starting k. Paper default: 5.
	InitialBins int
	// ErrorThresholdPct is e: the self-projection error (percent) below
	// which the selection is accepted. Default: 1.0.
	ErrorThresholdPct float64
	// MaxBins caps the refinement loop; defaults to the sequence-length
	// span (hi-lo+1), the k at which equal-width binning provably
	// isolates every unique SL and the projection becomes exact. (The
	// unique-SL count is not enough: two adjacent SLs can share an
	// equal-width bin while another bin sits empty.)
	MaxBins int
}

// Paper-default option values.
const (
	DefaultMaxUniqueNoBinning = 10
	DefaultInitialBins        = 5
	DefaultErrorThresholdPct  = 1.0
)

func (o Options) withDefaults(span int) Options {
	if o.MaxUniqueNoBinning <= 0 {
		o.MaxUniqueNoBinning = DefaultMaxUniqueNoBinning
	}
	if o.InitialBins <= 0 {
		o.InitialBins = DefaultInitialBins
	}
	if o.ErrorThresholdPct <= 0 {
		o.ErrorThresholdPct = DefaultErrorThresholdPct
	}
	if o.MaxBins <= 0 || o.MaxBins > span {
		o.MaxBins = span
	}
	return o
}

// Selection is the outcome of SeqPoint selection.
type Selection struct {
	// Points are the selected SeqPoints, ordered by sequence length.
	Points []SeqPoint
	// Bins is the final bin count k (0 when binning was skipped).
	Bins int
	// Binned reports whether binning was needed (unique SLs > n).
	Binned bool
	// ProjectedStat is the Equation-1 weighted sum on the calibration
	// config; ActualStat the true epoch total; ErrorPct their error.
	ProjectedStat float64
	ActualStat    float64
	ErrorPct      float64
}

// ErrNoRecords is returned when the epoch log is empty.
var ErrNoRecords = errors.New("core: no sequence-length records")

// Select runs the SeqPoint mechanism over the epoch log.
func Select(records []SLRecord, opts Options) (Selection, error) {
	if len(records) == 0 {
		return Selection{}, ErrNoRecords
	}
	recs, err := normalizeRecords(records)
	if err != nil {
		return Selection{}, err
	}
	span := recs[len(recs)-1].SeqLen - recs[0].SeqLen + 1
	opts = opts.withDefaults(span)

	actual := epochTotal(recs)

	// Step: few unique SLs — take them all, weighted by frequency.
	if len(recs) <= opts.MaxUniqueNoBinning {
		points := make([]SeqPoint, len(recs))
		for i, r := range recs {
			points[i] = SeqPoint{SeqLen: r.SeqLen, Weight: float64(r.Freq), Stat: r.Stat, Bin: i}
		}
		proj := projectTotal(points)
		return Selection{
			Points:        points,
			Binned:        false,
			ProjectedStat: proj,
			ActualStat:    actual,
			ErrorPct:      pctErr(proj, actual),
		}, nil
	}

	// Steps 2-6: bin, pick, weight, project; grow k until under e. A
	// starting k above the cap starts at the cap.
	var best Selection
	for k := min(opts.InitialBins, opts.MaxBins); k <= opts.MaxBins; k++ {
		points := selectWithBins(recs, k)
		proj := projectTotal(points)
		sel := Selection{
			Points:        points,
			Bins:          k,
			Binned:        true,
			ProjectedStat: proj,
			ActualStat:    actual,
			ErrorPct:      pctErr(proj, actual),
		}
		if best.Points == nil || sel.ErrorPct < best.ErrorPct {
			best = sel
		}
		if sel.ErrorPct <= opts.ErrorThresholdPct {
			return sel, nil
		}
	}
	// The threshold was never met within MaxBins; return the best
	// selection found. (With the default MaxBins — the full SL span —
	// the final iteration isolates every SL and projects exactly, so
	// this only happens with a user-constrained MaxBins.)
	return best, nil
}

// normalizeRecords validates, merges duplicate SLs, and sorts.
func normalizeRecords(records []SLRecord) ([]SLRecord, error) {
	bySL := make(map[int]SLRecord, len(records))
	for _, r := range records {
		if r.SeqLen <= 0 {
			return nil, fmt.Errorf("core: invalid sequence length %d", r.SeqLen)
		}
		if r.Freq <= 0 {
			return nil, fmt.Errorf("core: SL %d has non-positive frequency %d", r.SeqLen, r.Freq)
		}
		if r.Stat < 0 || math.IsNaN(r.Stat) || math.IsInf(r.Stat, 0) {
			return nil, fmt.Errorf("core: SL %d has invalid stat %v", r.SeqLen, r.Stat)
		}
		if prev, ok := bySL[r.SeqLen]; ok {
			if prev.Stat != r.Stat {
				return nil, fmt.Errorf("core: SL %d logged with conflicting stats %v and %v",
					r.SeqLen, prev.Stat, r.Stat)
			}
			prev.Freq += r.Freq
			bySL[r.SeqLen] = prev
			continue
		}
		bySL[r.SeqLen] = r
	}
	out := make([]SLRecord, 0, len(bySL))
	for _, r := range bySL {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SeqLen < out[j].SeqLen })
	return out, nil
}

// selectWithBins bins the sorted records into k contiguous SL ranges and
// picks one representative per non-empty bin (steps 2-4).
func selectWithBins(recs []SLRecord, k int) []SeqPoint {
	lo := recs[0].SeqLen
	hi := recs[len(recs)-1].SeqLen
	span := hi - lo + 1

	// binOf maps an SL onto one of k equal-width contiguous ranges.
	binOf := func(sl int) int {
		b := (sl - lo) * k / span
		if b >= k {
			b = k - 1
		}
		return b
	}

	type binAcc struct {
		members   []SLRecord
		weightSum float64
		statSum   float64 // frequency-weighted
	}
	bins := make([]binAcc, k)
	for _, r := range recs {
		b := binOf(r.SeqLen)
		bins[b].members = append(bins[b].members, r)
		bins[b].weightSum += float64(r.Freq)
		bins[b].statSum += float64(r.Freq) * r.Stat
	}

	var points []SeqPoint
	for b, acc := range bins {
		if len(acc.members) == 0 {
			continue
		}
		avg := acc.statSum / acc.weightSum
		// Representative: member whose stat is closest to the bin
		// average (step 3). Ties break toward the smaller SL.
		rep := acc.members[0]
		bestD := math.Abs(rep.Stat - avg)
		for _, m := range acc.members[1:] {
			if d := math.Abs(m.Stat - avg); d < bestD {
				rep, bestD = m, d
			}
		}
		points = append(points, SeqPoint{
			SeqLen: rep.SeqLen,
			Weight: acc.weightSum,
			Stat:   rep.Stat,
			Bin:    b,
		})
	}
	return points
}

// epochTotal is the true epoch statistic: sum over all iterations.
func epochTotal(recs []SLRecord) float64 {
	var t float64
	for _, r := range recs {
		t += float64(r.Freq) * r.Stat
	}
	return t
}

// projectTotal is Equation 1: the weighted sum over SeqPoints.
func projectTotal(points []SeqPoint) float64 {
	var t float64
	for _, p := range points {
		t += p.Weight * p.Stat
	}
	return t
}

func pctErr(predicted, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(predicted-actual) / math.Abs(actual) * 100
}
