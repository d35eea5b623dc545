package stats

import "errors"

// LinearFit is an ordinary-least-squares line y = Slope*x + Intercept,
// with R2 reporting the goodness of fit. The paper (Fig. 9 and the
// SeqPoint representative-selection rule in Section V-C) leans on
// iteration runtime being near-linear in sequence length within a bin;
// Fit lets tests assert that property of the simulator.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// Fit computes the least-squares line through (xs[i], ys[i]).
// It needs at least two points with non-constant x.
func Fit(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, ErrMismatch
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: fit needs at least two points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, errors.New("stats: fit undefined for constant x")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	// R^2 = 1 - SS_res/SS_tot.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}, nil
}
