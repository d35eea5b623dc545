package core

import (
	"fmt"

	"seqpoint/internal/cluster"
)

// SelectKMeansProfiles is the multi-dimensional variant of the Section
// VII-C ablation: instead of clustering scalar runtimes, it clusters
// full execution-profile vectors (e.g. [runtime, VALU instructions,
// DRAM reads, write stalls] per SL), normalizing each dimension to its
// maximum so no single counter dominates the distance. profiles maps
// each record's SL to its vector; all vectors must share one dimension.
//
// The paper reports that runtime alone is "a good enough proxy" for the
// full profile; this function is what that claim is verified against.
func SelectKMeansProfiles(records []SLRecord, profiles map[int][]float64, k int, seed int64) (Selection, error) {
	recs, k, err := kmeansInputs(records, k)
	if err != nil {
		return Selection{}, err
	}

	// Assemble and validate the vectors in record order.
	var dim int
	vecs := make([][]float64, len(recs))
	for i, r := range recs {
		v, ok := profiles[r.SeqLen]
		if !ok {
			return Selection{}, fmt.Errorf("core: no profile vector for SL %d", r.SeqLen)
		}
		if i == 0 {
			dim = len(v)
			if dim == 0 {
				return Selection{}, fmt.Errorf("core: empty profile vector for SL %d", r.SeqLen)
			}
		} else if len(v) != dim {
			return Selection{}, fmt.Errorf("core: profile vector for SL %d has dim %d, want %d",
				r.SeqLen, len(v), dim)
		}
		vecs[i] = append([]float64(nil), v...)
	}

	// Per-dimension max normalization.
	for d := 0; d < dim; d++ {
		var max float64
		for _, v := range vecs {
			if v[d] > max {
				max = v[d]
			}
		}
		if max == 0 {
			continue
		}
		for _, v := range vecs {
			v[d] /= max
		}
	}

	res, err := cluster.KMeans(vecs, k, seed)
	if err != nil {
		return Selection{}, err
	}
	return kmeansSelection(recs, k, res, vecs), nil
}

// SelectKMeans is the Section VII-C ablation: instead of binning
// contiguous SL ranges, cluster the per-SL statistics with k-means and
// take the member nearest each centroid as the representative, weighted
// by the cluster's iteration population. The paper reports the simple
// binning performs as well as this; the ablation benchmark verifies the
// same holds here.
func SelectKMeans(records []SLRecord, k int, seed int64) (Selection, error) {
	recs, k, err := kmeansInputs(records, k)
	if err != nil {
		return Selection{}, err
	}

	values := make([]float64, len(recs))
	points := make([][]float64, len(recs))
	for i, r := range recs {
		values[i] = r.Stat
		points[i] = []float64{r.Stat}
	}
	res, err := cluster.KMeans1D(values, k, seed)
	if err != nil {
		return Selection{}, err
	}
	return kmeansSelection(recs, k, res, points), nil
}

// kmeansInputs normalizes the records and clamps k to their count: the
// input contract both k-means selectors share.
func kmeansInputs(records []SLRecord, k int) ([]SLRecord, int, error) {
	recs, err := normalizeRecords(records)
	if err != nil {
		return nil, 0, err
	}
	if len(recs) == 0 {
		return nil, 0, ErrNoRecords
	}
	if k > len(recs) {
		k = len(recs)
	}
	if k < 1 {
		return nil, 0, fmt.Errorf("core: k-means needs k >= 1, got %d", k)
	}
	return recs, k, nil
}

// kmeansSelection turns a clustering of recs (points are the vectors
// it clustered) into a Selection: each cluster's member nearest its
// centroid represents it, weighted by the cluster's total iteration
// frequency.
func kmeansSelection(recs []SLRecord, k int, res cluster.Result, points [][]float64) Selection {
	reps := res.NearestToCentroid(points)
	weights := make([]float64, k)
	for i, r := range recs {
		weights[res.Assign[i]] += float64(r.Freq)
	}

	var selected []SeqPoint
	for c, repIdx := range reps {
		if repIdx < 0 {
			continue
		}
		r := recs[repIdx]
		selected = append(selected, SeqPoint{
			SeqLen: r.SeqLen,
			Weight: weights[c],
			Stat:   r.Stat,
			Bin:    c,
		})
	}

	actual := epochTotal(recs)
	proj := projectTotal(selected)
	return Selection{
		Points:        selected,
		Bins:          k,
		Binned:        true,
		ProjectedStat: proj,
		ActualStat:    actual,
		ErrorPct:      pctErr(proj, actual),
	}
}
