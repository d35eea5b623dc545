package models

import (
	"fmt"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// Seq2Seq hyperparameters: a plain LSTM encoder-decoder without
// attention (Sutskever-style, cited by the paper's Section VII-B via
// Luong et al.). Its per-iteration work is strictly linear in SL —
// the opposite extreme from the Transformer's quadratic attention —
// so together they bracket the SL-sensitivity space SeqPoint must
// handle.
const (
	Seq2SeqHidden = 1000
	Seq2SeqLayers = 4
	Seq2SeqVocab  = 50000
	seq2seqParams = 120_000_000
)

// Seq2Seq is the attention-free LSTM encoder-decoder.
type Seq2Seq struct{}

// NewSeq2Seq builds the model.
func NewSeq2Seq() *Seq2Seq { return &Seq2Seq{} }

// Name returns "seq2seq".
func (m *Seq2Seq) Name() string { return "seq2seq" }

// ParamCount returns the trainable-parameter count.
func (m *Seq2Seq) ParamCount() int { return seq2seqParams }

// layers builds the full stack: embedding, encoder LSTMs, decoder
// LSTMs, vocabulary projection. Without attention the encoder-decoder
// boundary carries only the final hidden state, so a single stack
// models the iteration's kernel stream faithfully.
func (m *Seq2Seq) layers() []nn.Layer {
	layers := []nn.Layer{nn.NewEmbedding("embed", Seq2SeqVocab, Seq2SeqHidden)}
	for i := 0; i < Seq2SeqLayers; i++ {
		layers = append(layers, nn.NewRecurrent(
			fmt.Sprintf("enc_lstm_%d", i), nn.CellLSTM, Seq2SeqHidden, false))
	}
	for i := 0; i < Seq2SeqLayers; i++ {
		layers = append(layers, nn.NewRecurrent(
			fmt.Sprintf("dec_lstm_%d", i), nn.CellLSTM, Seq2SeqHidden, false))
	}
	return append(layers,
		nn.NewDense("classifier", Seq2SeqVocab, false),
		nn.NewSoftmax("softmax"),
	)
}

// input is the embedded-token activation.
func (m *Seq2Seq) input(batch, seqLen int) nn.Activation {
	return nn.Activation{Batch: batch, Time: seqLen, Feat: Seq2SeqHidden}
}

// IterationBlocks returns one training iteration's blocks.
func (m *Seq2Seq) IterationBlocks(batch, seqLen int) []tensor.Block {
	return stackIteration(m.layers(), m.input(batch, seqLen), optimizerBlocks(seq2seqParams, m.Name()))
}

// EvalBlocks returns one forward-only pass.
func (m *Seq2Seq) EvalBlocks(batch, seqLen int) []tensor.Block {
	ops, _, _ := runForward(m.layers(), m.input(batch, seqLen))
	return ops
}
