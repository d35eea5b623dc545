package models

import (
	"fmt"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

// Custom is a user-defined model assembled from the layer library. The
// builder runs per iteration with the padded sequence length, so layers
// whose construction depends on SL (e.g. attention over the full input,
// Section VII-B of the paper) can be sized correctly.
type Custom struct {
	name       string
	paramCount int
	input      func(batch, seqLen int) nn.Activation
	build      func(seqLen int) []nn.Layer
}

// NewCustom defines a model. name labels it in reports; paramCount sizes
// the optimizer pass; input maps (batch, seqLen) to the network's input
// activation; build returns the layer stack for an iteration at the
// given SL.
func NewCustom(
	name string,
	paramCount int,
	input func(batch, seqLen int) nn.Activation,
	build func(seqLen int) []nn.Layer,
) (*Custom, error) {
	switch {
	case name == "":
		return nil, fmt.Errorf("models: custom model needs a name")
	case paramCount <= 0:
		return nil, fmt.Errorf("models: custom model %q needs a positive parameter count", name)
	case input == nil:
		return nil, fmt.Errorf("models: custom model %q needs an input function", name)
	case build == nil:
		return nil, fmt.Errorf("models: custom model %q needs a layer builder", name)
	}
	return &Custom{
		name:       name,
		paramCount: paramCount,
		input:      input,
		build:      build,
	}, nil
}

// Name returns the model name.
func (m *Custom) Name() string { return m.name }

// ParamCount returns the declared trainable-parameter count.
func (m *Custom) ParamCount() int { return m.paramCount }

// IterationBlocks returns one training iteration's blocks.
func (m *Custom) IterationBlocks(batch, seqLen int) []tensor.Block {
	layers := m.build(seqLen)
	return stackIteration(layers, m.input(batch, seqLen), optimizerBlocks(m.paramCount, m.name))
}

// EvalBlocks returns one forward-only pass.
func (m *Custom) EvalBlocks(batch, seqLen int) []tensor.Block {
	ops, _, _ := runForward(m.build(seqLen), m.input(batch, seqLen))
	return ops
}
