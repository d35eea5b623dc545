package nn

import (
	"fmt"

	"seqpoint/internal/tensor"
)

// Attention is an additive (Bahdanau-style) attention network connecting
// a decoder to encoder outputs, as in GNMT. Unlike the recurrent cells,
// which process one symbol at a time with fixed-size inputs, attention
// touches the *entire* encoder sequence at every decoder step — it is
// one of the layers the paper singles out (Section IV-B1) as making
// iteration work scale with sequence length beyond simple unrolling:
// its pointwise score evaluation is O(T_dec * T_enc * hidden).
type Attention struct {
	LayerName string
	Hidden    int
	// EncTime is the encoder sequence length the decoder attends over;
	// set per iteration by the model assembly.
	EncTime int
}

// NewAttention builds an attention layer over EncTime encoder steps.
func NewAttention(name string, hidden, encTime int) Attention {
	if hidden <= 0 || encTime <= 0 {
		panic(fmt.Sprintf("nn: invalid attention %s (hidden %d, encTime %d)", name, hidden, encTime))
	}
	return Attention{LayerName: name, Hidden: hidden, EncTime: encTime}
}

// Name returns the layer name.
func (a Attention) Name() string { return a.LayerName }

// Forward emits, per decoder step: the query projection, the additive
// score evaluation over all encoder steps, the softmax over scores, and
// the context-vector GEMM — one block repeated every decoder step. The
// encoder-side key projection is hoisted out of the step loop (computed
// once per iteration), as real implementations do.
func (a Attention) Forward(in Activation) ([]tensor.Block, Activation) {
	h := a.Hidden
	b := in.Batch
	blocks := []tensor.Block{
		// Hoisted key projection: W1 x encoder outputs, all steps at once.
		{Ops: []tensor.Op{tensor.NewGEMM(h, b*a.EncTime, h, a.LayerName+"_keys")}, Repeat: 1},
		{Ops: []tensor.Op{
			// Query projection for this decoder step.
			tensor.NewGEMM(h, b, h, a.LayerName+"_query"),
			// Additive combine + tanh over every encoder position.
			tensor.NewElementwise(b*a.EncTime*h, opsPerGateElem, a.LayerName+"_score"),
			// v^T reduction to scalar scores, then softmax over positions.
			tensor.NewReduction(b*a.EncTime*h, b*a.EncTime, a.LayerName+"_vdot"),
			tensor.NewElementwise(b*a.EncTime, opsPerSoftmaxElem, a.LayerName+"_softmax"),
			// Context vector: weighted sum of encoder outputs.
			tensor.NewGEMM(h, b, a.EncTime, a.LayerName+"_context"),
		}, Repeat: in.Time},
	}
	out := in
	out.Feat = in.Feat + h // decoder consumes [state; context]
	return blocks, out
}

// Backward emits gradients mirroring the forward structure.
func (a Attention) Backward(in Activation) []tensor.Block {
	h := a.Hidden
	b := in.Batch
	return []tensor.Block{
		{Ops: []tensor.Op{
			tensor.NewGEMM(h, b*a.EncTime, h, a.LayerName+"_keys_dgrad"),
			tensor.NewGEMM(h, h, b*a.EncTime, a.LayerName+"_keys_wgrad"),
		}, Repeat: 1},
		{Ops: []tensor.Op{
			tensor.NewGEMM(h, b, h, a.LayerName+"_query_dgrad"),
			tensor.NewGEMM(h, h, b, a.LayerName+"_query_wgrad"),
			tensor.NewElementwise(b*a.EncTime*h, opsPerGateElem, a.LayerName+"_score_bwd"),
			tensor.NewGEMM(h, b, a.EncTime, a.LayerName+"_context_bwd"),
		}, Repeat: in.Time},
	}
}
