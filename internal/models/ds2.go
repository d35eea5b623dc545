package models

import (
	"fmt"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// DS2 hyperparameters, following the MLPerf reference implementation the
// paper profiles: two 2-D convolutions over the spectrogram, a
// batch-norm, five bidirectional GRU layers of 800 units, and a
// fully-connected classifier over the 29-character English alphabet
// trained with CTC. The classifier GEMM's M=29, K=1600 (=2x800
// bidirectional output) shape matches the paper's Table I row for DS2.
const (
	DS2Freq       = 161 // spectrogram frequency bins
	DS2ConvChan   = 32
	DS2GRUHidden  = 800
	DS2GRULayers  = 5
	DS2Alphabet   = 29
	ds2ParamCount = 38_000_000
)

// DeepSpeech2 is Baidu's speech-recognition SQNN. The iteration sequence
// length is the padded spectrogram frame count of the input batch.
type DeepSpeech2 struct {
	layers []nn.Layer
}

// NewDS2 builds the DeepSpeech2 model.
func NewDS2() *DeepSpeech2 {
	layers := []nn.Layer{
		nn.NewConv("conv1", DS2ConvChan, 41, 11, 2, 2, 20, 5, true),
		nn.NewConv("conv2", DS2ConvChan, 21, 11, 2, 1, 10, 5, true),
		nn.NewBatchNorm("bn"),
		nn.NewFlatten("flatten"),
	}
	for i := 0; i < DS2GRULayers; i++ {
		layers = append(layers, nn.NewRecurrent(
			fmt.Sprintf("gru_%d", i), nn.CellGRU, DS2GRUHidden, true))
	}
	layers = append(layers,
		nn.NewDense("classifier", DS2Alphabet, false),
		nn.NewCTCLoss("ctc"),
	)
	return &DeepSpeech2{layers: layers}
}

// Name returns "ds2".
func (m *DeepSpeech2) Name() string { return "ds2" }

// ParamCount returns the trainable-parameter count.
func (m *DeepSpeech2) ParamCount() int { return ds2ParamCount }

// input returns the spectrogram activation for an iteration.
func (m *DeepSpeech2) input(batch, seqLen int) nn.Activation {
	return nn.Activation{Batch: batch, Time: seqLen, Freq: DS2Freq, Channels: 1}
}

// IterationBlocks returns one training iteration's blocks.
func (m *DeepSpeech2) IterationBlocks(batch, seqLen int) []tensor.Block {
	return stackIteration(m.layers, m.input(batch, seqLen), optimizerBlocks(ds2ParamCount, "ds2"))
}

// EvalBlocks returns one forward-only pass.
func (m *DeepSpeech2) EvalBlocks(batch, seqLen int) []tensor.Block {
	ops, _, _ := runForward(m.layers, m.input(batch, seqLen))
	return ops
}
