package models

import (
	"fmt"
	"slices"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// Transformer hyperparameters: a base-sized encoder-decoder Transformer
// (Vaswani et al.), one of the attention-based networks the paper's
// Section VII-B names as benefiting from SeqPoint. Attention work is
// O(T^2), so Transformer iterations are even more sequence-length-
// sensitive than RNN ones — a stress case for the binning.
const (
	TransformerHidden    = 512
	TransformerFFN       = 2048
	TransformerEncBlocks = 6
	TransformerDecBlocks = 6
	TransformerVocab     = 32000
	transformerParams    = 65_000_000
)

// Transformer is an encoder-decoder attention model. As with GNMT, the
// iteration sequence length is the padded source length, with the
// target side padded to match.
type Transformer struct{}

// NewTransformer builds the base Transformer model.
func NewTransformer() *Transformer { return &Transformer{} }

// Name returns "transformer".
func (m *Transformer) Name() string { return "transformer" }

// ParamCount returns the trainable-parameter count.
func (m *Transformer) ParamCount() int { return transformerParams }

// block returns one Transformer block: self-attention over seqLen
// positions, then the position-wise feed-forward pair, each followed by
// layer normalization (post-norm, as in the original architecture).
func block(prefix string, seqLen int) []nn.Layer {
	return []nn.Layer{
		nn.NewAttention(prefix+"_selfattn", TransformerHidden, seqLen),
		nn.NewLayerNorm(prefix + "_ln1"),
		nn.NewDense(prefix+"_ffn_up", TransformerFFN, true),
		nn.NewDense(prefix+"_ffn_down", TransformerHidden, false),
		nn.NewLayerNorm(prefix + "_ln2"),
	}
}

// encoder builds the encoder stack for an iteration at seqLen.
func (m *Transformer) encoder(seqLen int) []nn.Layer {
	layers := []nn.Layer{nn.NewEmbedding("src_embed", TransformerVocab, TransformerHidden)}
	for i := 0; i < TransformerEncBlocks; i++ {
		layers = append(layers, block(fmt.Sprintf("enc_%d", i), seqLen)...)
	}
	return layers
}

// decoder builds the decoder stack: each block self-attends over the
// target and cross-attends over the encoder output.
func (m *Transformer) decoder(seqLen int) []nn.Layer {
	layers := []nn.Layer{nn.NewEmbedding("tgt_embed", TransformerVocab, TransformerHidden)}
	for i := 0; i < TransformerDecBlocks; i++ {
		prefix := fmt.Sprintf("dec_%d", i)
		layers = append(layers,
			nn.NewAttention(prefix+"_selfattn", TransformerHidden, seqLen),
			nn.NewAttention(prefix+"_crossattn", TransformerHidden, seqLen),
			nn.NewDense(prefix+"_ffn_up", TransformerFFN, true),
			nn.NewDense(prefix+"_ffn_down", TransformerHidden, false),
		)
	}
	return append(layers,
		nn.NewDense("classifier", TransformerVocab, false),
		nn.NewSoftmax("softmax"),
	)
}

// input is the embedded-token activation.
func (m *Transformer) input(batch, seqLen int) nn.Activation {
	return nn.Activation{Batch: batch, Time: seqLen, Feat: TransformerHidden}
}

// IterationBlocks returns one training iteration's blocks.
func (m *Transformer) IterationBlocks(batch, seqLen int) []tensor.Block {
	in := m.input(batch, seqLen)
	enc := m.encoder(seqLen)
	dec := m.decoder(seqLen)

	encFwd, encInputs, _ := runForward(enc, in)
	decFwd, decInputs, _ := runForward(dec, in)
	return slices.Concat(encFwd, decFwd, runBackward(dec, decInputs), runBackward(enc, encInputs),
		optimizerBlocks(transformerParams, m.Name()))
}

// EvalBlocks returns one forward-only pass.
func (m *Transformer) EvalBlocks(batch, seqLen int) []tensor.Block {
	in := m.input(batch, seqLen)
	encFwd, _, _ := runForward(m.encoder(seqLen), in)
	decFwd, _, _ := runForward(m.decoder(seqLen), in)
	return append(encFwd, decFwd...)
}
