package models

import (
	"fmt"
	"slices"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// GNMT hyperparameters, following the MLPerf reference the paper
// profiles: an encoder of eight LSTM layers (the first bidirectional),
// a decoder of eight LSTM layers, an additive attention network
// connecting them, and a fully-connected projection onto the
// vocabulary. The 36 549-word vocabulary matches the paper's Table I
// classifier GEMM dimension for GNMT on IWSLT'15.
const (
	GNMTHidden     = 1024
	GNMTEncLayers  = 8
	GNMTDecLayers  = 8
	GNMTVocab      = 36549
	gnmtParamCount = 160_000_000
)

// GNMT is Google's neural machine translation SQNN. The iteration
// sequence length is the padded source-sentence length; the target side
// is padded to the same length (sentence pairs have strongly correlated
// lengths, and GNMT-style batching pads both sides of a bucket
// together).
type GNMT struct{}

// NewGNMT builds the GNMT model.
func NewGNMT() *GNMT { return &GNMT{} }

// Name returns "gnmt".
func (m *GNMT) Name() string { return "gnmt" }

// ParamCount returns the trainable-parameter count.
func (m *GNMT) ParamCount() int { return gnmtParamCount }

// encoderLayers builds the encoder stack for one iteration.
func (m *GNMT) encoderLayers() []nn.Layer {
	layers := []nn.Layer{
		nn.NewEmbedding("src_embed", GNMTVocab, GNMTHidden),
		nn.NewRecurrent("enc_lstm_0", nn.CellLSTM, GNMTHidden, true),
		// The bidirectional layer outputs 2*hidden; GNMT's next layer
		// consumes it directly.
	}
	for i := 1; i < GNMTEncLayers; i++ {
		layers = append(layers, nn.NewRecurrent(
			fmt.Sprintf("enc_lstm_%d", i), nn.CellLSTM, GNMTHidden, false))
	}
	return layers
}

// decoderLayers builds the decoder stack, with attention following the
// first decoder LSTM, for an iteration whose encoder ran encTime steps.
func (m *GNMT) decoderLayers(encTime int) []nn.Layer {
	layers := []nn.Layer{
		nn.NewEmbedding("tgt_embed", GNMTVocab, GNMTHidden),
		nn.NewRecurrent("dec_lstm_0", nn.CellLSTM, GNMTHidden, false),
		nn.NewAttention("attention", GNMTHidden, encTime),
	}
	for i := 1; i < GNMTDecLayers; i++ {
		layers = append(layers, nn.NewRecurrent(
			fmt.Sprintf("dec_lstm_%d", i), nn.CellLSTM, GNMTHidden, false))
	}
	layers = append(layers,
		nn.NewDense("classifier", GNMTVocab, false),
		nn.NewSoftmax("softmax"),
	)
	return layers
}

// IterationBlocks returns one training iteration's blocks.
func (m *GNMT) IterationBlocks(batch, seqLen int) []tensor.Block {
	encIn := nn.Activation{Batch: batch, Time: seqLen, Feat: GNMTHidden}
	decIn := nn.Activation{Batch: batch, Time: seqLen, Feat: GNMTHidden}

	enc := m.encoderLayers()
	dec := m.decoderLayers(seqLen)

	encFwd, encInputs, _ := runForward(enc, encIn)
	decFwd, decInputs, _ := runForward(dec, decIn)
	return slices.Concat(encFwd, decFwd, runBackward(dec, decInputs), runBackward(enc, encInputs),
		optimizerBlocks(gnmtParamCount, "gnmt"))
}

// EvalBlocks returns one forward-only pass.
func (m *GNMT) EvalBlocks(batch, seqLen int) []tensor.Block {
	encIn := nn.Activation{Batch: batch, Time: seqLen, Feat: GNMTHidden}
	decIn := nn.Activation{Batch: batch, Time: seqLen, Feat: GNMTHidden}
	encFwd, _, _ := runForward(m.encoderLayers(), encIn)
	decFwd, _, _ := runForward(m.decoderLayers(seqLen), decIn)
	return append(encFwd, decFwd...)
}
