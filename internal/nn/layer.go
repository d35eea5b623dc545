// Package nn is a layer library for describing sequence-based (and
// convolutional) neural networks at the granularity a profiler sees:
// each layer, given an activation shape, emits the logical operations
// (internal/tensor) its forward and backward passes launch. Assembling
// layers into models (internal/models) and pricing the emitted ops
// (internal/gpusim) yields per-iteration execution profiles without
// running any arithmetic — which is exactly the level SeqPoint operates
// at: the paper's key observations are about which kernels, with which
// shapes, an iteration of a given sequence length launches.
package nn

import (
	"fmt"

	"seqpoint/internal/tensor"
)

// Activation is the symbolic shape of the tensor flowing between layers.
// Recurrent and dense layers use Batch/Time/Feat; the convolutional
// front-end (DS2's first two layers, and the CNN used for the paper's
// Fig. 3 contrast) additionally tracks a 2-D spectral/spatial extent in
// Freq x Time with Channels planes.
type Activation struct {
	// Batch is the minibatch size (constant across a training run).
	Batch int
	// Time is the number of sequence steps at this point of the network;
	// strided convolutions shrink it.
	Time int
	// Feat is the per-step feature width for recurrent/dense layers.
	Feat int
	// Freq and Channels describe the 2-D activation used by conv layers;
	// zero once the activation is flattened for the recurrent stack.
	Freq, Channels int
}

// Elems returns the total element count of the activation.
func (a Activation) Elems() int {
	if a.Channels > 0 {
		return a.Batch * a.Channels * a.Freq * a.Time
	}
	return a.Batch * a.Time * a.Feat
}

// Validate reports whether the shape is usable.
func (a Activation) Validate() error {
	if a.Batch <= 0 || a.Time <= 0 {
		return fmt.Errorf("nn: invalid activation %+v", a)
	}
	if a.Channels > 0 {
		if a.Freq <= 0 {
			return fmt.Errorf("nn: conv activation needs Freq: %+v", a)
		}
		return nil
	}
	if a.Feat <= 0 {
		return fmt.Errorf("nn: dense activation needs Feat: %+v", a)
	}
	return nil
}

// Layer is one network stage. Forward returns the ops a forward pass
// launches, as blocks in launch order, and the output activation shape;
// Backward returns the blocks of the corresponding backward pass
// (gradient with respect to inputs and weights). A layer that launches
// the same ops at every timestep returns them as one block repeated
// in.Time times rather than in.Time copies (see tensor.Block), so a
// profile prices them once. Layers are stateless descriptions: the same
// layer value can be queried for any activation shape.
type Layer interface {
	// Name identifies the layer in kernel labels ("enc_lstm_0", ...).
	Name() string
	Forward(in Activation) ([]tensor.Block, Activation)
	Backward(in Activation) []tensor.Block
}

// Ops per element for common pointwise stages. Gate math dominates
// recurrent cells: sigmoid/tanh evaluations cost several flops each.
const (
	opsPerGateElem    = 12 // sigmoid/tanh + gate arithmetic
	opsPerActElem     = 4  // plain activation (ReLU/clipped ReLU + bias)
	opsPerNormElem    = 6  // batch-norm apply: scale, shift, normalize
	opsPerSoftmaxElem = 8  // exp + divide
)

// once returns ops as a single block launched one time.
func once(ops ...tensor.Op) []tensor.Block {
	return []tensor.Block{{Ops: ops, Repeat: 1}}
}
