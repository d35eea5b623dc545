// Package profiler collects per-iteration execution profiles from the
// GPU model, standing in for the Radeon Compute Profiler in the paper's
// methodology: for each training iteration it records total runtime,
// aggregate hardware counters, and a kernel-level breakdown (which
// kernels ran, how often, for how long). The comparison utilities
// (unique-kernel overlap, runtime distribution by kernel group) are the
// measurements behind the paper's Figs 4, 5, 6, and 8.
package profiler

import (
	"fmt"
	"sort"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/tensor"
)

// KernelStat aggregates all invocations of one concrete kernel within an
// iteration.
type KernelStat struct {
	// Kernel is the concrete kernel symbol.
	Kernel string
	// Kind is the op class the kernel implements.
	Kind tensor.Kind
	// Count is the number of dynamic invocations.
	Count int
	// TimeUS is the summed runtime.
	TimeUS float64
	// Counters are the summed hardware counters.
	Counters gpusim.Counters
}

// IterationProfile is the execution profile of one training iteration:
// the paper's definition (Section IV-A) — "the distribution of invoked
// kernels and their runtimes".
type IterationProfile struct {
	// SeqLen is the padded sequence length of the iteration's batch.
	SeqLen int
	// Batch is the minibatch size.
	Batch int
	// TimeUS is the iteration runtime (all kernels, incl. launches).
	// For a cluster step profile (see ProfileStep) it additionally
	// includes the exposed gradient-communication time.
	TimeUS float64
	// CommUS is the exposed (overlap-adjusted) gradient all-reduce time
	// included in TimeUS; zero for single-GPU profiles.
	CommUS float64
	// NumKernels is the dynamic kernel-invocation count.
	NumKernels int
	// Counters are the iteration-aggregate hardware counters.
	Counters gpusim.Counters
	// Kernels is the per-kernel breakdown, sorted by descending time.
	Kernels []KernelStat
	// LabelTimeUS maps layer-level op labels ("classifier",
	// "enc_lstm_0_xproj", ...) to their summed runtime; this is the
	// grouping behind the paper's Fig. 6/Fig. 8 "GEMM-1"/"GEMM-2"
	// distributions.
	LabelTimeUS map[string]float64
	// TunedShapes lists the distinct GEMM/convolution shape signatures a
	// training iteration launches, in first-launch order, each with the
	// time of its first launch: the input AutotuneUS charges from. Eval
	// profiles record none (evaluation reuses the training run's
	// tuning). A cached profile shares this slice with every reader, so
	// it must never be modified.
	TunedShapes []TunedShape
}

// TunedShape is one GEMM/convolution shape a training iteration
// launches, priced at its first launch.
type TunedShape struct {
	// Signature is the op's shape signature (see tensor.Op).
	Signature string
	// TimeUS is the modeled runtime of the shape's first launch.
	TimeUS float64
}

// ProfileIteration runs one training iteration of m under sim and
// aggregates the trace, recording the iteration's tuned shapes.
func ProfileIteration(sim *gpusim.Simulator, m models.Model, batch, seqLen int) (IterationProfile, error) {
	if batch <= 0 || seqLen <= 0 {
		return IterationProfile{}, fmt.Errorf("profiler: invalid iteration batch=%d seqLen=%d", batch, seqLen)
	}
	return profileOps(sim, m.IterationBlocks(batch, seqLen), batch, seqLen, true), nil
}

// ProfileEval runs one forward-only evaluation pass.
func ProfileEval(sim *gpusim.Simulator, m models.Model, batch, seqLen int) (IterationProfile, error) {
	if batch <= 0 || seqLen <= 0 {
		return IterationProfile{}, fmt.Errorf("profiler: invalid eval batch=%d seqLen=%d", batch, seqLen)
	}
	return profileOps(sim, m.EvalBlocks(batch, seqLen), batch, seqLen, false), nil
}

// pricedOp is one op of a block, priced: its invocation and the kernel
// stat and label total that every launch of it adds into.
type pricedOp struct {
	inv   gpusim.Invocation
	ks    *KernelStat
	label *float64 // nil for an unlabeled op
}

// profileOps aggregates an iteration given as blocks. Each op of a
// block is priced once, in op order, before the block's first launch:
// that resolves its kernel stat, its label total and, with tune set,
// its tuned shape, so tuned shapes keep first-launch order. The block
// then adds every launch's time, kernel count and counters Repeat
// times over, in launch order, so every float sums exactly as it would
// over the flattened stream (tensor.Flatten) with each launch priced
// anew. Blocks with Repeat <= 0 launch nothing and are skipped.
func profileOps(sim *gpusim.Simulator, blocks []tensor.Block, batch, seqLen int, tune bool) IterationProfile {
	p := IterationProfile{SeqLen: seqLen, Batch: batch}
	// Nearly every op carries its own label, so the op count sizes the
	// per-label and per-shape maps without regrowth.
	n := 0
	for _, b := range blocks {
		n += len(b.Ops)
	}
	byKernel := make(map[string]*KernelStat)
	labels := make(map[string]*float64, n)
	var tuned map[string]bool
	if tune {
		tuned = make(map[string]bool, n)
	}
	var priced []pricedOp
	for _, b := range blocks {
		if b.Repeat <= 0 {
			continue
		}
		priced = priced[:0]
		for _, op := range b.Ops {
			inv := sim.Price(op)
			po := pricedOp{inv: inv, ks: byKernel[inv.Kernel]}
			if po.ks == nil {
				po.ks = &KernelStat{Kernel: inv.Kernel, Kind: inv.Kind}
				byKernel[inv.Kernel] = po.ks
			}
			if inv.Label != "" {
				if po.label = labels[inv.Label]; po.label == nil {
					po.label = new(float64)
					labels[inv.Label] = po.label
				}
			}
			if tune && (inv.Kind == tensor.KindGEMM || inv.Kind == tensor.KindConv2D) && !tuned[inv.Signature] {
				tuned[inv.Signature] = true
				p.TunedShapes = append(p.TunedShapes, TunedShape{Signature: inv.Signature, TimeUS: inv.TimeUS})
			}
			priced = append(priced, po)
		}
		for r := 0; r < b.Repeat; r++ {
			for i := range priced {
				po := &priced[i]
				inv := &po.inv
				p.TimeUS += inv.TimeUS
				p.NumKernels++
				p.Counters.Add(inv.Counters)
				po.ks.Count++
				po.ks.TimeUS += inv.TimeUS
				po.ks.Counters.Add(inv.Counters)
				if po.label != nil {
					*po.label += inv.TimeUS
				}
			}
		}
	}
	p.LabelTimeUS = make(map[string]float64, len(labels))
	for label, us := range labels {
		p.LabelTimeUS[label] = *us
	}
	p.Kernels = make([]KernelStat, 0, len(byKernel))
	for _, ks := range byKernel {
		p.Kernels = append(p.Kernels, *ks)
	}
	sort.Slice(p.Kernels, func(i, j int) bool {
		if p.Kernels[i].TimeUS != p.Kernels[j].TimeUS {
			return p.Kernels[i].TimeUS > p.Kernels[j].TimeUS
		}
		return p.Kernels[i].Kernel < p.Kernels[j].Kernel
	})
	return p
}

// UniqueKernels returns the set of distinct kernel symbols invoked.
func (p IterationProfile) UniqueKernels() map[string]struct{} {
	set := make(map[string]struct{}, len(p.Kernels))
	for _, k := range p.Kernels {
		set[k.Kernel] = struct{}{}
	}
	return set
}

// Overlap compares the unique-kernel sets of two iterations, returning
// the counts behind one bar group of the paper's Fig. 5: kernels common
// to both, kernels only in p, and kernels only in q.
func Overlap(p, q IterationProfile) (common, onlyP, onlyQ int) {
	ps, qs := p.UniqueKernels(), q.UniqueKernels()
	for k := range ps {
		if _, ok := qs[k]; ok {
			common++
		} else {
			onlyP++
		}
	}
	for k := range qs {
		if _, ok := ps[k]; !ok {
			onlyQ++
		}
	}
	return common, onlyP, onlyQ
}

// TimeShareByKind returns the fraction of iteration runtime spent in
// each op class (GEMM, elementwise, reduce, ...), the quantity the
// paper's Fig. 6 plots per sequence length.
func (p IterationProfile) TimeShareByKind() map[tensor.Kind]float64 {
	shares := make(map[tensor.Kind]float64)
	if p.TimeUS == 0 {
		return shares
	}
	for _, k := range p.Kernels {
		shares[k.Kind] += k.TimeUS / p.TimeUS
	}
	return shares
}

// TopKernels returns the n longest-running kernels.
func (p IterationProfile) TopKernels(n int) []KernelStat {
	if n > len(p.Kernels) {
		n = len(p.Kernels)
	}
	return p.Kernels[:n]
}

// Throughput returns training throughput in samples per second, the
// paper's speedup metric (Section VI-C).
func (p IterationProfile) Throughput() float64 {
	if p.TimeUS == 0 {
		return 0
	}
	return float64(p.Batch) / (p.TimeUS / 1e6)
}
