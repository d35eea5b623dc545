// Package cluster implements k-means clustering. The paper's Section
// VII-C compares SeqPoint's simple contiguous-range binning against
// k-means over iteration execution profiles and finds the simple scheme
// performs as well; this package provides the k-means side of that
// ablation (and the general vector form, usable on multi-counter
// profiles).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Result is a k-means clustering outcome.
type Result struct {
	// Assign maps each input point index to its cluster index.
	Assign []int
	// Centroids holds the final cluster centers.
	Centroids [][]float64
	// Sizes holds the member count of each cluster.
	Sizes []int
	// Iterations is how many Lloyd iterations ran before convergence.
	Iterations int
}

// maxLloydIterations bounds the refinement loop.
const maxLloydIterations = 200

// KMeans clusters the points into k clusters using Lloyd's algorithm
// with k-means++ seeding. Points must be non-empty, share one dimension,
// and k must satisfy 1 <= k <= len(points). The seed makes runs
// reproducible.
func KMeans(points [][]float64, k int, seed int64) (Result, error) {
	if len(points) == 0 {
		return Result{}, errors.New("cluster: no points")
	}
	if k < 1 || k > len(points) {
		return Result{}, fmt.Errorf("cluster: k=%d outside [1,%d]", k, len(points))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return Result{}, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	sizes := make([]int, k)

	var iter int
	for iter = 0; iter < maxLloydIterations; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		for c := range centroids {
			for d := range centroids[c] {
				centroids[c][d] = 0
			}
			sizes[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			sizes[c]++
			for d, v := range p {
				centroids[c][d] += v
			}
		}
		for c := range centroids {
			if sizes[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centroids[c], points[rng.Intn(len(points))])
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] /= float64(sizes[c])
			}
		}
	}

	// Final size count (assignments may have changed on the last pass).
	for c := range sizes {
		sizes[c] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	return Result{Assign: assign, Centroids: centroids, Sizes: sizes, Iterations: iter}, nil
}

// KMeans1D clusters scalar values; a convenience wrapper for the
// runtime-only ablation.
func KMeans1D(values []float64, k int, seed int64) (Result, error) {
	points := make([][]float64, len(values))
	for i, v := range values {
		points[i] = []float64{v}
	}
	return KMeans(points, k, seed)
}

// seedPlusPlus picks initial centroids with k-means++ weighting.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[rng.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))

	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		var next int
		if total == 0 {
			next = rng.Intn(len(points))
		} else {
			r := rng.Float64() * total
			for i, d := range d2 {
				r -= d
				if r <= 0 {
					next = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[next]...))
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// NearestToCentroid returns, for each cluster, the index of the member
// point closest to the centroid — the k-means analogue of picking a
// SimPoint/SeqPoint representative. An empty cluster maps to -1.
func (r Result) NearestToCentroid(points [][]float64) []int {
	reps := make([]int, len(r.Centroids))
	best := make([]float64, len(r.Centroids))
	for c := range reps {
		reps[c] = -1
		best[c] = math.Inf(1)
	}
	for i, p := range points {
		c := r.Assign[i]
		if d := sqDist(p, r.Centroids[c]); d < best[c] {
			best[c] = d
			reps[c] = i
		}
	}
	return reps
}
