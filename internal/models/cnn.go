package models

import (
	"fmt"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// CNN hyperparameters: a VGG-style image classifier over fixed-size
// inputs. Because every input is scaled to the same resolution, every
// iteration launches identical work — the homogeneous-iterations case
// the paper contrasts SQNNs against in Fig. 3.
const (
	CNNImageSize  = 64
	CNNClasses    = 100
	cnnParamCount = 15_000_000
)

// CNN is the fixed-input convolutional model.
type CNN struct {
	layers []nn.Layer
}

// NewCNN builds the CNN model.
func NewCNN() *CNN {
	widths := []int{64, 128, 256}
	var layers []nn.Layer
	for i, w := range widths {
		layers = append(layers,
			nn.NewConv(fmt.Sprintf("conv%d", i+1), w, 3, 3, 1, 1, 1, 1, true),
			nn.NewPool(fmt.Sprintf("pool%d", i+1), 2, 2),
		)
	}
	layers = append(layers,
		nn.NewFlattenAll("flatten"),
		nn.NewDense("fc1", 512, true),
		nn.NewDense("classifier", CNNClasses, false),
		nn.NewSoftmax("softmax"),
	)
	return &CNN{layers: layers}
}

// Name returns "cnn".
func (m *CNN) Name() string { return "cnn" }

// ParamCount returns the trainable-parameter count.
func (m *CNN) ParamCount() int { return cnnParamCount }

// input returns the image-batch activation; seqLen is ignored because
// images are scaled to a fixed resolution before training.
func (m *CNN) input(batch int) nn.Activation {
	return nn.Activation{Batch: batch, Time: CNNImageSize, Freq: CNNImageSize, Channels: 3}
}

// IterationBlocks returns one training iteration's blocks. The sequence length
// argument is accepted for interface uniformity and ignored.
func (m *CNN) IterationBlocks(batch, _ int) []tensor.Block {
	return stackIteration(m.layers, m.input(batch), optimizerBlocks(cnnParamCount, "cnn"))
}

// EvalBlocks returns one forward-only pass.
func (m *CNN) EvalBlocks(batch, _ int) []tensor.Block {
	ops, _, _ := runForward(m.layers, m.input(batch))
	return ops
}
