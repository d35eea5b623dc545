package nn

import (
	"fmt"

	"seqpoint/internal/tensor"
)

// Dense is a fully-connected layer applied per timestep: one GEMM whose
// N dimension is batch*seqLen. For classifier heads over large
// vocabularies (GNMT's 36k-word projection) this is the single largest
// kernel of the iteration, and its N dimension varies with SL across
// iterations — the paper's Table I documents exactly this kernel.
type Dense struct {
	LayerName string
	Out       int
	Activated bool
}

// NewDense builds a fully-connected layer with Out output features.
func NewDense(name string, out int, activated bool) Dense {
	if out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense layer %s with %d outputs", name, out))
	}
	return Dense{LayerName: name, Out: out, Activated: activated}
}

// Name returns the layer name.
func (d Dense) Name() string { return d.LayerName }

// Forward emits the batched GEMM (and optional activation).
func (d Dense) Forward(in Activation) ([]tensor.Block, Activation) {
	ops := []tensor.Op{tensor.NewGEMM(d.Out, in.Batch*in.Time, in.Feat, d.LayerName)}
	if d.Activated {
		ops = append(ops, tensor.NewElementwise(d.Out*in.Batch*in.Time, opsPerActElem, d.LayerName+"_act"))
	}
	out := in
	out.Feat = d.Out
	return once(ops...), out
}

// Backward emits the data- and weight-gradient GEMMs.
func (d Dense) Backward(in Activation) []tensor.Block {
	n := in.Batch * in.Time
	ops := []tensor.Op{
		tensor.NewGEMM(in.Feat, n, d.Out, d.LayerName+"_dgrad"),
		tensor.NewGEMM(d.Out, in.Feat, n, d.LayerName+"_wgrad"),
	}
	if d.Activated {
		ops = append(ops, tensor.NewElementwise(d.Out*n, opsPerActElem, d.LayerName+"_act_bwd"))
	}
	return once(ops...)
}

// EmbeddingLayer gathers one row per token from a vocabulary table.
// Per the paper's key observation 6, the table must keep the full
// dataset vocabulary for sampled iterations to stay representative; the
// table size enters the cost model through the gather's working set.
type EmbeddingLayer struct {
	LayerName string
	Vocab     int
	Dim       int
}

// NewEmbedding builds an embedding layer over a Vocab x Dim table.
func NewEmbedding(name string, vocab, dim int) EmbeddingLayer {
	if vocab <= 0 || dim <= 0 {
		panic(fmt.Sprintf("nn: invalid embedding %s (%d x %d)", name, vocab, dim))
	}
	return EmbeddingLayer{LayerName: name, Vocab: vocab, Dim: dim}
}

// Name returns the layer name.
func (e EmbeddingLayer) Name() string { return e.LayerName }

// Forward emits the gather.
func (e EmbeddingLayer) Forward(in Activation) ([]tensor.Block, Activation) {
	out := in
	out.Feat = e.Dim
	out.Freq, out.Channels = 0, 0
	return once(tensor.NewEmbedding(e.Vocab, e.Dim, in.Batch*in.Time, e.LayerName)), out
}

// Backward emits the scatter-add of gradients into the table.
func (e EmbeddingLayer) Backward(in Activation) []tensor.Block {
	return once(tensor.NewEmbedding(e.Vocab, e.Dim, in.Batch*in.Time, e.LayerName+"_bwd"))
}

// Softmax is a per-step softmax plus loss evaluation: row-max and
// row-sum reductions with an exponentiation pointwise pass over
// batch*seqLen rows of Feat entries.
type Softmax struct {
	LayerName string
}

// NewSoftmax builds a softmax/loss head.
func NewSoftmax(name string) Softmax { return Softmax{LayerName: name} }

// Name returns the layer name.
func (s Softmax) Name() string { return s.LayerName }

// Forward emits the reductions and the exponentiation.
func (s Softmax) Forward(in Activation) ([]tensor.Block, Activation) {
	rows := in.Batch * in.Time
	return once(
		tensor.NewReduction(rows*in.Feat, rows, s.LayerName+"_max"),
		tensor.NewElementwise(rows*in.Feat, opsPerSoftmaxElem, s.LayerName+"_exp"),
		tensor.NewReduction(rows*in.Feat, rows, s.LayerName+"_sum"),
	), in
}

// Backward emits the gradient pointwise pass.
func (s Softmax) Backward(in Activation) []tensor.Block {
	rows := in.Batch * in.Time
	return once(tensor.NewElementwise(rows*in.Feat, opsPerSoftmaxElem, s.LayerName+"_bwd"))
}

// CTCLoss approximates the connectionist-temporal-classification loss
// DS2 trains with: an alpha-beta dynamic program over (time x labels)
// per utterance, dominated by pointwise work proportional to
// batch * time * feat with a per-batch reduction.
type CTCLoss struct {
	LayerName string
}

// NewCTCLoss builds a CTC loss head.
func NewCTCLoss(name string) CTCLoss { return CTCLoss{LayerName: name} }

// Name returns the layer name.
func (c CTCLoss) Name() string { return c.LayerName }

// Forward emits the forward dynamic program.
func (c CTCLoss) Forward(in Activation) ([]tensor.Block, Activation) {
	return once(
		tensor.NewElementwise(in.Batch*in.Time*in.Feat, 6, c.LayerName+"_alpha"),
		tensor.NewReduction(in.Batch*in.Time, in.Batch, c.LayerName+"_norm"),
	), in
}

// Backward emits the beta pass and gradient assembly.
func (c CTCLoss) Backward(in Activation) []tensor.Block {
	return once(
		tensor.NewElementwise(in.Batch*in.Time*in.Feat, 6, c.LayerName+"_beta"),
		tensor.NewElementwise(in.Batch*in.Time*in.Feat, 2, c.LayerName+"_grad"),
	)
}
