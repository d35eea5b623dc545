package nn

import (
	"fmt"
	"strconv"

	"seqpoint/internal/tensor"
)

// CellKind selects the recurrent cell type.
type CellKind int

const (
	// CellLSTM is a long short-term memory cell (4 gates).
	CellLSTM CellKind = iota
	// CellGRU is a gated recurrent unit (3 gates).
	CellGRU
)

// gates returns the gate multiplier of the cell: the fused weight matrix
// is (gates*hidden) x input.
func (k CellKind) gates() int {
	if k == CellGRU {
		return 3
	}
	return 4
}

// String names the cell kind.
func (k CellKind) String() string {
	if k == CellGRU {
		return "gru"
	}
	return "lstm"
}

// Recurrent is an RNN layer: an LSTM or GRU, optionally bidirectional.
// Following the structure of optimized implementations (cuDNN/MIOpen
// RNN paths, which the paper's stack calls into), the input projection
// for all timesteps is batched into one large GEMM whose N dimension is
// batch*seqLen — this is the GEMM whose shape varies with sequence
// length across iterations (the paper's Table I shows exactly such a
// kernel for DS2 with N = 25728 = 64*402) — while the recurrent
// projection is a per-timestep GEMM with N = batch, launched seqLen
// times. This split is what makes both the *number* of kernels and the
// *shapes* of kernels depend on SL (key observations 1-3).
type Recurrent struct {
	LayerName     string
	Kind          CellKind
	Hidden        int
	Bidirectional bool
}

// NewRecurrent builds a recurrent layer.
func NewRecurrent(name string, kind CellKind, hidden int, bidirectional bool) Recurrent {
	if hidden <= 0 {
		panic(fmt.Sprintf("nn: invalid hidden size %d", hidden))
	}
	return Recurrent{LayerName: name, Kind: kind, Hidden: hidden, Bidirectional: bidirectional}
}

// Name returns the layer name.
func (r Recurrent) Name() string { return r.LayerName }

// directions returns 1 or 2.
func (r Recurrent) directions() int {
	if r.Bidirectional {
		return 2
	}
	return 1
}

// OutFeat is the output feature width (doubled when bidirectional).
func (r Recurrent) OutFeat() int { return r.Hidden * r.directions() }

// Forward emits the forward-pass blocks and the output shape: per
// direction, the batched input projection once, then the recurrent
// projection and gate math as one block repeated every timestep.
func (r Recurrent) Forward(in Activation) ([]tensor.Block, Activation) {
	blocks := make([]tensor.Block, 0, 2*r.directions()+1)
	g := r.Kind.gates()
	for d := 0; d < r.directions(); d++ {
		dir := ""
		if r.Bidirectional {
			dir = "_d" + strconv.Itoa(d)
		}
		blocks = append(blocks,
			// Batched input projection across all timesteps:
			// [g*H, B*T] = W_x [g*H, F] x X [F, B*T].
			tensor.Block{Ops: []tensor.Op{tensor.NewGEMM(g*r.Hidden, in.Batch*in.Time, in.Feat,
				r.LayerName+dir+"_xproj")}, Repeat: 1},
			// Per-timestep recurrent projection and gate math: the same
			// two ops every step.
			tensor.Block{Ops: []tensor.Op{
				tensor.NewGEMM(g*r.Hidden, in.Batch, r.Hidden, r.LayerName+dir+"_hproj"),
				tensor.NewElementwise(g*r.Hidden*in.Batch, opsPerGateElem, r.LayerName+dir+"_gates"),
			}, Repeat: in.Time},
		)
	}
	if r.Bidirectional {
		// Concatenate the two directions' outputs.
		blocks = append(blocks, once(tensor.NewElementwise(2*r.Hidden*in.Batch*in.Time, 1,
			r.LayerName+"_concat"))...)
	}
	out := in
	out.Feat = r.OutFeat()
	out.Freq, out.Channels = 0, 0
	return blocks, out
}

// Backward emits the backward-pass blocks: for each forward GEMM, a
// data-gradient GEMM and a weight-gradient GEMM (standard BPTT), plus
// the pointwise gate gradients. The per-timestep gradients form one
// block repeated every timestep.
func (r Recurrent) Backward(in Activation) []tensor.Block {
	blocks := make([]tensor.Block, 0, 2*r.directions())
	g := r.Kind.gates()
	for d := 0; d < r.directions(); d++ {
		dir := ""
		if r.Bidirectional {
			dir = "_d" + strconv.Itoa(d)
		}
		blocks = append(blocks,
			tensor.Block{Ops: []tensor.Op{
				// Input projection gradients, batched across timesteps:
				// dX [F, B*T] = W_x^T [F, g*H] x dGates [g*H, B*T]
				tensor.NewGEMM(in.Feat, in.Batch*in.Time, g*r.Hidden, r.LayerName+dir+"_xproj_dgrad"),
				// dW_x [g*H, F] = dGates [g*H, B*T] x X^T [B*T, F]
				tensor.NewGEMM(g*r.Hidden, in.Feat, in.Batch*in.Time, r.LayerName+dir+"_xproj_wgrad"),
			}, Repeat: 1},
			tensor.Block{Ops: []tensor.Op{
				tensor.NewGEMM(r.Hidden, in.Batch, g*r.Hidden, r.LayerName+dir+"_hproj_dgrad"),
				tensor.NewGEMM(g*r.Hidden, r.Hidden, in.Batch, r.LayerName+dir+"_hproj_wgrad"),
				tensor.NewElementwise(g*r.Hidden*in.Batch, opsPerGateElem, r.LayerName+dir+"_gates_bwd"),
			}, Repeat: in.Time},
		)
	}
	return blocks
}
