package nn

import (
	"fmt"

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

// Forward emits the forward-pass ops and the output shape.
func (r Recurrent) Forward(in Activation) ([]tensor.Op, Activation) {
	ops := make(seqOps, 0, r.directions()*(1+2*in.Time)+1)
	g := r.Kind.gates()
	for d := 0; d < r.directions(); d++ {
		dir := ""
		if r.Bidirectional {
			dir = fmt.Sprintf("_d%d", d)
		}
		// Batched input projection across all timesteps:
		// [g*H, B*T] = W_x [g*H, F] x X [F, B*T].
		ops.add(tensor.NewGEMM(g*r.Hidden, in.Batch*in.Time, in.Feat,
			r.LayerName+dir+"_xproj"))
		// Per-timestep recurrent projection and gate math: the same two
		// ops every step, built once and launched in.Time times.
		hproj := tensor.Op(tensor.NewGEMM(g*r.Hidden, in.Batch, r.Hidden,
			r.LayerName+dir+"_hproj"))
		gates := tensor.Op(tensor.NewElementwise(g*r.Hidden*in.Batch, opsPerGateElem,
			r.LayerName+dir+"_gates"))
		for t := 0; t < in.Time; t++ {
			ops.add(hproj, gates)
		}
	}
	if r.Bidirectional {
		// Concatenate the two directions' outputs.
		ops.add(tensor.NewElementwise(2*r.Hidden*in.Batch*in.Time, 1,
			r.LayerName+"_concat"))
	}
	out := in
	out.Feat = r.OutFeat()
	out.Freq, out.Channels = 0, 0
	return ops, out
}

// Backward emits the backward-pass ops: for each forward GEMM, a
// data-gradient GEMM and a weight-gradient GEMM (standard BPTT), plus
// the pointwise gate gradients.
func (r Recurrent) Backward(in Activation) []tensor.Op {
	ops := make(seqOps, 0, r.directions()*(2+3*in.Time))
	g := r.Kind.gates()
	for d := 0; d < r.directions(); d++ {
		dir := ""
		if r.Bidirectional {
			dir = fmt.Sprintf("_d%d", d)
		}
		// Input projection gradients, batched across timesteps:
		// dX [F, B*T] = W_x^T [F, g*H] x dGates [g*H, B*T]
		ops.add(tensor.NewGEMM(in.Feat, in.Batch*in.Time, g*r.Hidden,
			r.LayerName+dir+"_xproj_dgrad"))
		// dW_x [g*H, F] = dGates [g*H, B*T] x X^T [B*T, F]
		ops.add(tensor.NewGEMM(g*r.Hidden, in.Feat, in.Batch*in.Time,
			r.LayerName+dir+"_xproj_wgrad"))
		dgrad := tensor.Op(tensor.NewGEMM(r.Hidden, in.Batch, g*r.Hidden,
			r.LayerName+dir+"_hproj_dgrad"))
		wgrad := tensor.Op(tensor.NewGEMM(g*r.Hidden, r.Hidden, in.Batch,
			r.LayerName+dir+"_hproj_wgrad"))
		gates := tensor.Op(tensor.NewElementwise(g*r.Hidden*in.Batch, opsPerGateElem,
			r.LayerName+dir+"_gates_bwd"))
		for t := 0; t < in.Time; t++ {
			ops.add(dgrad, wgrad, gates)
		}
	}
	return ops
}
