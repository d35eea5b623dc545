package gpusim

import (
	"fmt"

	"seqpoint/internal/tensor"
)

// Bound classifies what limits a kernel's execution time under a given
// configuration — the first question any profiling study asks of a
// trace, and the quantity whose SL-dependence explains why different
// hardware changes speed different iterations up by different amounts
// (the paper's Figs 13/14).
type Bound int

const (
	// BoundCompute: the arithmetic pipeline is the bottleneck.
	BoundCompute Bound = iota
	// BoundMemory: DRAM bandwidth is the bottleneck.
	BoundMemory
	// BoundLaunch: fixed launch overhead exceeds the execution time —
	// typical of the per-timestep kernels of short-SL iterations.
	BoundLaunch
)

// String names the bound.
func (b Bound) String() string {
	switch b {
	case BoundCompute:
		return "compute"
	case BoundMemory:
		return "memory"
	case BoundLaunch:
		return "launch"
	default:
		return fmt.Sprintf("bound(%d)", int(b))
	}
}

// Explanation is the cost breakdown of one priced op.
type Explanation struct {
	// Kernel is the dispatched symbol.
	Kernel string
	// ComputeUS and MemoryUS are the two roofline legs; LaunchUS the
	// fixed overhead. TimeUS = LaunchUS + max(ComputeUS, MemoryUS).
	ComputeUS, MemoryUS, LaunchUS, TimeUS float64
	// Bound is the classified limiter.
	Bound Bound
	// ArithmeticIntensity is FLOPs per DRAM byte moved — the roofline
	// x-axis.
	ArithmeticIntensity float64
}

// Explain prices op and returns the full breakdown rather than just the
// invocation record.
func (s *Simulator) Explain(op tensor.Op) Explanation {
	inv := s.Price(op)
	r := s.roofline(op)

	ex := Explanation{
		Kernel:    inv.Kernel,
		ComputeUS: r.computeUS,
		MemoryUS:  r.memUS,
		LaunchUS:  s.cfg.LaunchOverheadUS,
		TimeUS:    inv.TimeUS,
	}
	exec := maxF(r.computeUS, r.memUS)
	switch {
	case s.cfg.LaunchOverheadUS > exec:
		ex.Bound = BoundLaunch
	case r.computeUS >= r.memUS:
		ex.Bound = BoundCompute
	default:
		ex.Bound = BoundMemory
	}
	if bytes := r.readBytes + r.writeBytes; bytes > 0 {
		ex.ArithmeticIntensity = op.FLOPs() / bytes
	}
	return ex
}

// BoundShares classifies every op and returns the fraction of total
// time attributed to kernels of each bound class — the iteration-level
// roofline summary.
func (s *Simulator) BoundShares(ops []tensor.Op) map[Bound]float64 {
	shares := make(map[Bound]float64, 3)
	var total float64
	for _, op := range ops {
		ex := s.Explain(op)
		shares[ex.Bound] += ex.TimeUS
		total += ex.TimeUS
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares
}
