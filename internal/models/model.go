// Package models assembles the networks the paper studies from the
// layer library: DeepSpeech2 and GNMT (the two MLPerf-reference SQNNs of
// the evaluation) plus a fixed-input CNN used for the homogeneous-vs-
// heterogeneous iteration contrast of Fig. 3. A model, given a batch
// size and the padded sequence length of an iteration's input batch,
// returns the logical operations one training iteration launches —
// forward and backward — as blocks of repeated ops, ready for pricing
// by the GPU model.
package models

import (
	"slices"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// Model describes a trainable network at profiling granularity. An
// iteration is a list of blocks in launch order (see tensor.Block):
// per-timestep ops arrive as one block repeated once per step, so the
// block count is fixed by the architecture while the launch count grows
// with seqLen. Callers that need the individual launches, in order,
// call tensor.Flatten.
type Model interface {
	// Name identifies the model ("ds2", "gnmt", "cnn").
	Name() string
	// IterationBlocks returns the blocks of one training iteration
	// (forward + loss + backward) for a batch padded to seqLen.
	IterationBlocks(batch, seqLen int) []tensor.Block
	// EvalBlocks returns the blocks of one evaluation (forward-only)
	// pass.
	EvalBlocks(batch, seqLen int) []tensor.Block
	// ParamCount is the number of trainable parameters — the quantity
	// the optimizer pass streams over and the gradient all-reduce of a
	// data-parallel cluster moves every step.
	ParamCount() int
}

// GradientBytes is the size of one full gradient exchange for m: one
// element per trainable parameter. This is the byte count a
// data-parallel all-reduce moves per training step.
func GradientBytes(m Model) float64 {
	return float64(m.ParamCount()) * tensor.ElemSize
}

// runForward applies the layer stack to in, returning all forward
// blocks and the per-layer input shapes (needed to replay the backward
// pass).
func runForward(layers []nn.Layer, in nn.Activation) ([]tensor.Block, []nn.Activation, nn.Activation) {
	parts := make([][]tensor.Block, len(layers))
	inputs := make([]nn.Activation, len(layers))
	cur := in
	for i, l := range layers {
		inputs[i] = cur
		parts[i], cur = l.Forward(cur)
	}
	return slices.Concat(parts...), inputs, cur
}

// runBackward replays the stack in reverse, emitting each layer's
// backward blocks against the input shape it saw in the forward pass.
func runBackward(layers []nn.Layer, inputs []nn.Activation) []tensor.Block {
	parts := make([][]tensor.Block, len(layers))
	for i := len(layers) - 1; i >= 0; i-- {
		parts[len(layers)-1-i] = layers[i].Backward(inputs[i])
	}
	return slices.Concat(parts...)
}

// stackIteration is the common forward+backward+optimizer assembly for
// models that are a single layer stack.
func stackIteration(layers []nn.Layer, in nn.Activation, optimizer []tensor.Block) []tensor.Block {
	fwd, inputs, _ := runForward(layers, in)
	return slices.Concat(fwd, runBackward(layers, inputs), optimizer)
}

// optimizerBlocks models the weight-update pass (SGD with momentum):
// one streaming pointwise op over every parameter.
func optimizerBlocks(paramCount int, label string) []tensor.Block {
	return []tensor.Block{{Ops: []tensor.Op{tensor.NewElementwise(paramCount, 4, label+"_sgd")}, Repeat: 1}}
}
