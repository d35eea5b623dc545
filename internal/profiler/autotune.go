package profiler

// Autotune models the kernel-selection phase high-level frameworks run
// the first time they meet a new GEMM/convolution shape (Section IV-C2
// of the paper): the library times several candidate kernels and caches
// the winner. Each *new* shape signature therefore adds a one-time cost;
// because every unique sequence length introduces new shapes, autotune
// overhead concentrates in an SQNN's first epoch — exactly the paper's
// observation that autotune affects the first iteration of CNNs but the
// first epoch of SQNNs.
const (
	// autotuneTrials is how many candidate kernels the library times
	// per new shape.
	autotuneTrials = 12
	// autotuneSetupUS is the fixed per-shape bookkeeping cost.
	autotuneSetupUS = 400.0
)

// AutotuneUS returns the autotune cost incurred by the training
// iteration profiled in p, charging only for the shape signatures of
// p.TunedShapes not yet in seen, and records the newly seen ones. Only
// GEMM and convolution shapes are tuned (rocBLAS/MIOpen behaviour);
// pointwise kernels dispatch statically. The profile already holds
// each shape's first-launch time, so the charge needs neither the op
// stream nor a simulator.
func AutotuneUS(p IterationProfile, seen map[string]bool) float64 {
	var us float64
	for _, s := range p.TunedShapes {
		if seen[s.Signature] {
			continue
		}
		seen[s.Signature] = true
		us += autotuneSetupUS + autotuneTrials*s.TimeUS
	}
	return us
}
