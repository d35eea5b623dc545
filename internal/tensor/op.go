// Package tensor describes the logical operations a network layer
// executes — GEMMs, convolutions, elementwise maps, reductions, and
// embedding lookups — together with their first-order cost quantities
// (floating-point operations, bytes read and written, working-set size).
//
// Layers in internal/nn emit these ops; the GPU model in internal/gpusim
// maps each op onto a concrete, size-specialized kernel and prices it
// under a hardware configuration. Keeping the op description separate
// from the kernel/cost layer mirrors how real stacks split framework
// graphs from vendor libraries (rocBLAS/MIOpen in the paper's setup),
// and is what lets the simulator reproduce the paper's kernel-selection
// effects (Fig. 5) without any profiling.
package tensor

import "fmt"

// ElemSize is the element size in bytes. The paper's workloads train in
// fp32 on a Vega FE, so every tensor here is 4-byte floats.
const ElemSize = 4

// Kind classifies a logical op. gpusim selects kernel families by Kind.
type Kind int

const (
	// KindGEMM is a dense matrix multiply C[M,N] += A[M,K] * B[K,N].
	KindGEMM Kind = iota
	// KindConv2D is a 2-D convolution (DS2's front-end layers).
	KindConv2D
	// KindElementwise covers pointwise maps: activations, bias adds,
	// gate arithmetic inside recurrent cells, batch-norm apply.
	KindElementwise
	// KindReduction covers sum/max-style reductions: softmax partials,
	// batch-norm statistics, loss reductions.
	KindReduction
	// KindEmbedding is a vocabulary-table gather.
	KindEmbedding
)

// String returns the human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindGEMM:
		return "gemm"
	case KindConv2D:
		return "conv2d"
	case KindElementwise:
		return "elementwise"
	case KindReduction:
		return "reduce"
	case KindEmbedding:
		return "embedding"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Op is a logical operation with enough information for a cost model:
// how much arithmetic it performs, how much data it touches, and a
// shape signature that determines which specialized kernel a vendor
// library would dispatch to.
type Op interface {
	// Kind reports the operation class.
	Kind() Kind
	// FLOPs is the number of floating-point operations.
	FLOPs() float64
	// BytesRead is the number of bytes fetched from memory, before any
	// cache filtering.
	BytesRead() float64
	// BytesWritten is the number of bytes stored to memory.
	BytesWritten() float64
	// WorkingSet is the reuse footprint in bytes: the data a kernel
	// revisits while executing. The cache model uses it to decide how
	// much of BytesRead is served by L1/L2.
	WorkingSet() float64
	// Signature is a stable shape identity, e.g. "gemm:1024x576x1024".
	// Two ops with the same signature dispatch to the same kernel and
	// share one autotune decision.
	Signature() string
}

// Block is a run of ops launched back to back, Repeat times over. A
// recurrent or attention layer launches the same per-timestep kernels
// once per step (the paper's key observations 1-3), so it emits those
// ops as one block with Repeat equal to the step count; every other
// stage is a block of Repeat 1. Repeat <= 0 launches nothing, just as
// a step loop over zero timesteps does. Pricing walks blocks, so each
// op of a block is priced once however many times it launches.
type Block struct {
	Ops    []Op
	Repeat int
}

// Flatten returns the launch order of blocks: each block's ops, Repeat
// times over, block after block.
func Flatten(blocks []Block) []Op {
	n := 0
	for _, b := range blocks {
		n += len(b.Ops) * max(b.Repeat, 0)
	}
	ops := make([]Op, 0, n)
	for _, b := range blocks {
		for r := 0; r < b.Repeat; r++ {
			ops = append(ops, b.Ops...)
		}
	}
	return ops
}
