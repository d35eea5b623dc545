package core

import (
	"errors"
	"fmt"
)

// Projection helpers: once SeqPoints are identified (on the calibration
// configuration), only the SeqPoint iterations are executed on any other
// system configuration; these functions turn those few measurements into
// whole-run projections (Section V-C, Equation 1, and the normalized
// form for ratio statistics).

// ErrStatMissing is returned when a projection lacks a measurement for
// one of the SeqPoints.
var ErrStatMissing = errors.New("core: missing per-SeqPoint statistic")

// ProjectTotal projects an additive whole-epoch statistic (e.g. total
// training time) on a target configuration, given the statistic measured
// for each SeqPoint's iteration on that configuration, keyed by SL.
func ProjectTotal(points []SeqPoint, statBySL map[int]float64) (float64, error) {
	var total float64
	for _, p := range points {
		s, ok := statBySL[p.SeqLen]
		if !ok {
			return 0, fmt.Errorf("%w: SL %d", ErrStatMissing, p.SeqLen)
		}
		total += p.Weight * s
	}
	return total, nil
}

// ProjectMean projects a ratio statistic (throughput, IPC): the weighted
// sum normalized by the total weight, as the paper specifies for
// Equation 1.
func ProjectMean(points []SeqPoint, statBySL map[int]float64) (float64, error) {
	var num, den float64
	for _, p := range points {
		s, ok := statBySL[p.SeqLen]
		if !ok {
			return 0, fmt.Errorf("%w: SL %d", ErrStatMissing, p.SeqLen)
		}
		num += p.Weight * s
		den += p.Weight
	}
	if den == 0 {
		return 0, errors.New("core: zero total weight")
	}
	return num / den, nil
}

// TotalWeight returns the summed weight of the selection (the epoch's
// iteration count the SeqPoints stand for).
func TotalWeight(points []SeqPoint) float64 {
	var w float64
	for _, p := range points {
		w += p.Weight
	}
	return w
}

// ProjectThroughput projects training throughput (samples/s) on a target
// configuration from per-SeqPoint iteration runtimes (microseconds) on
// that configuration: total samples divided by projected total time.
func ProjectThroughput(points []SeqPoint, iterTimeUSBySL map[int]float64, batch int) (float64, error) {
	if batch <= 0 {
		return 0, fmt.Errorf("core: batch must be positive, got %d", batch)
	}
	totalUS, err := ProjectTotal(points, iterTimeUSBySL)
	if err != nil {
		return 0, err
	}
	if totalUS <= 0 {
		return 0, errors.New("core: projected non-positive total time")
	}
	samples := TotalWeight(points) * float64(batch)
	return samples / (totalUS / 1e6), nil
}

// UpliftPct returns the percent throughput uplift going from base to
// target (the paper's speedup metric for Figs 13-16).
func UpliftPct(targetThroughput, baseThroughput float64) (float64, error) {
	if baseThroughput <= 0 {
		return 0, errors.New("core: base throughput must be positive")
	}
	return (targetThroughput/baseThroughput - 1) * 100, nil
}
