// Package profiler collects per-iteration execution profiles from the
// GPU model, standing in for the Radeon Compute Profiler in the paper's
// methodology. For each iteration it records what SeqPoint reads and
// the engine caches: total runtime, the exposed communication, the
// kernel count, aggregate hardware counters and the shapes autotune
// charges for. The kernel-level breakdown (which kernels ran, how
// often, for how long, and the runtime of each layer label) is a
// separate, on-demand Breakdown; its comparison utilities (unique-kernel
// overlap) are the measurements behind the paper's Figs 5, 6 and 8.
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

// IterationProfile is the execution profile of one iteration: its
// runtime as a function of sequence length, which is all SeqPoint's
// selection and projection read (Section IV), plus the aggregate
// counters and tuned shapes the characterization and the trainer need.
// It is the record the engine caches and snapshots, so it holds no
// per-kernel or per-label detail; BreakdownStep computes that on
// demand.
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

// Breakdown is the kernel-level view of one training iteration: the
// paper's "distribution of invoked kernels and their runtimes"
// (Section IV-A). Its kernel and label times sum, launch by launch,
// to the compute time of the iteration's profile; the profile's
// communication time has no kernel.
type Breakdown struct {
	// Kernels is the per-kernel breakdown, sorted by descending time,
	// then by kernel symbol.
	Kernels []KernelStat
	// LabelTimeUS maps layer-level op labels ("classifier",
	// "enc_lstm_0_xproj", ...) to their summed runtime; this is the
	// grouping behind the paper's Fig. 6/Fig. 8 "GEMM-1"/"GEMM-2"
	// distributions.
	LabelTimeUS map[string]float64
}

// ProfileIteration runs one training iteration of m under sim and
// aggregates the trace, recording the iteration's tuned shapes.
func ProfileIteration(sim *gpusim.Simulator, m models.Model, batch, seqLen int) (IterationProfile, error) {
	if err := checkShape("iteration", batch, seqLen); err != nil {
		return IterationProfile{}, err
	}
	return profileOps(sim, m.IterationBlocks(batch, seqLen), batch, seqLen, true), nil
}

// ProfileEval runs one forward-only evaluation pass.
func ProfileEval(sim *gpusim.Simulator, m models.Model, batch, seqLen int) (IterationProfile, error) {
	if err := checkShape("eval", batch, seqLen); err != nil {
		return IterationProfile{}, err
	}
	return profileOps(sim, m.EvalBlocks(batch, seqLen), batch, seqLen, false), nil
}

// checkShape rejects a non-positive batch or sequence length.
func checkShape(what string, batch, seqLen int) error {
	if batch <= 0 || seqLen <= 0 {
		return fmt.Errorf("profiler: invalid %s batch=%d seqLen=%d", what, batch, seqLen)
	}
	return nil
}

// profileOps totals an iteration given as blocks. Each op of a block
// is costed once, in op order, before the block's first launch; with
// tune set, a GEMM or convolution whose signature is new records its
// tuned shape then, so tuned shapes keep first-launch order. The block
// then adds every launch's time and counters Repeat times over, in
// launch order, so every float sums exactly as it would over the
// flattened stream (tensor.Flatten) with each launch priced anew.
// Blocks with Repeat <= 0 launch nothing and are skipped. Nothing here
// names a kernel: this is the engine's cache-miss path.
func profileOps(sim *gpusim.Simulator, blocks []tensor.Block, batch, seqLen int, tune bool) IterationProfile {
	p := IterationProfile{SeqLen: seqLen, Batch: batch}
	var tuned map[string]bool
	if tune {
		tuned = make(map[string]bool)
	}
	var costs []gpusim.OpCost
	for _, b := range blocks {
		if b.Repeat <= 0 {
			continue
		}
		costs = costs[:0]
		for _, op := range b.Ops {
			c := sim.Cost(op)
			if tune && (c.Kind == tensor.KindGEMM || c.Kind == tensor.KindConv2D) {
				if sig := op.Signature(); !tuned[sig] {
					tuned[sig] = true
					p.TunedShapes = append(p.TunedShapes, TunedShape{Signature: sig, TimeUS: c.TimeUS})
				}
			}
			costs = append(costs, c)
		}
		for r := 0; r < b.Repeat; r++ {
			for i := range costs {
				p.TimeUS += costs[i].TimeUS
				p.Counters.Add(costs[i].Counters)
			}
		}
		p.NumKernels += b.Repeat * len(costs)
	}
	return p
}

// BreakdownStep returns the kernel and label breakdown of the training
// step ProfileStep prices: the iteration on the shard batch of
// globalBatch. It walks the same blocks with the same per-launch
// accumulation as profileOps, so each kernel's and label's times sum
// exactly as over the flattened stream.
func BreakdownStep(sim *gpusim.Simulator, cl gpusim.ClusterConfig, m models.Model, globalBatch, seqLen int) (Breakdown, error) {
	cl = cl.Normalized()
	if err := cl.Validate(); err != nil {
		return Breakdown{}, err
	}
	batch := cl.ShardBatch(globalBatch)
	if err := checkShape("iteration", batch, seqLen); err != nil {
		return Breakdown{}, err
	}
	return breakdownOps(sim, m.IterationBlocks(batch, seqLen)), nil
}

// pricedOp is one op of a block, priced: its invocation and the kernel
// stat and label total that every launch of it adds into.
type pricedOp struct {
	inv   gpusim.Invocation
	ks    *KernelStat
	label *float64 // nil for an unlabeled op
}

// breakdownOps aggregates an iteration given as blocks per kernel and
// per label. Each op of a block is priced once; its launches then add
// into their kernel stat and label total Repeat times over, in launch
// order. Blocks with Repeat <= 0 launch nothing and are skipped.
func breakdownOps(sim *gpusim.Simulator, blocks []tensor.Block) Breakdown {
	byKernel := make(map[string]*KernelStat)
	labels := make(map[string]*float64)
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
			priced = append(priced, po)
		}
		for r := 0; r < b.Repeat; r++ {
			for i := range priced {
				po := &priced[i]
				po.ks.Count++
				po.ks.TimeUS += po.inv.TimeUS
				po.ks.Counters.Add(po.inv.Counters)
				if po.label != nil {
					*po.label += po.inv.TimeUS
				}
			}
		}
	}
	bd := Breakdown{
		Kernels:     make([]KernelStat, 0, len(byKernel)),
		LabelTimeUS: make(map[string]float64, len(labels)),
	}
	for label, us := range labels {
		bd.LabelTimeUS[label] = *us
	}
	for _, ks := range byKernel {
		bd.Kernels = append(bd.Kernels, *ks)
	}
	sort.Slice(bd.Kernels, func(i, j int) bool {
		if bd.Kernels[i].TimeUS != bd.Kernels[j].TimeUS {
			return bd.Kernels[i].TimeUS > bd.Kernels[j].TimeUS
		}
		return bd.Kernels[i].Kernel < bd.Kernels[j].Kernel
	})
	return bd
}

// UniqueKernels returns the set of distinct kernel symbols invoked.
func (bd Breakdown) UniqueKernels() map[string]struct{} {
	set := make(map[string]struct{}, len(bd.Kernels))
	for _, k := range bd.Kernels {
		set[k.Kernel] = struct{}{}
	}
	return set
}

// Overlap compares the unique-kernel sets of two iterations, returning
// the counts behind one bar group of the paper's Fig. 5: kernels common
// to both, kernels only in p, and kernels only in q.
func Overlap(p, q Breakdown) (common, onlyP, onlyQ int) {
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
