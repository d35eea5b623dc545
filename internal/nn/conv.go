package nn

import (
	"fmt"

	"seqpoint/internal/tensor"
)

// Conv is a 2-D convolution layer over a Freq x Time activation with
// Channels input planes (DS2's spectrogram front-end) or square images
// (the CNN used for the Fig. 3 CNN-vs-RNN contrast).
type Conv struct {
	LayerName      string
	OutC, KH, KW   int
	SH, SW, PH, PW int
	// Activated adds a clipped-ReLU after the convolution.
	Activated bool
}

// NewConv builds a convolution layer.
func NewConv(name string, outC, kh, kw, sh, sw, ph, pw int, activated bool) Conv {
	if outC <= 0 || kh <= 0 || kw <= 0 || sh <= 0 || sw <= 0 {
		panic(fmt.Sprintf("nn: invalid conv layer %s", name))
	}
	return Conv{LayerName: name, OutC: outC, KH: kh, KW: kw, SH: sh, SW: sw, PH: ph, PW: pw, Activated: activated}
}

// Name returns the layer name.
func (c Conv) Name() string { return c.LayerName }

func (c Conv) op(in Activation, label string) tensor.Conv2D {
	return tensor.NewConv2D(in.Batch, in.Channels, in.Freq, in.Time,
		c.OutC, c.KH, c.KW, c.SH, c.SW, c.PH, c.PW, label)
}

// Forward emits the convolution (and optional activation) and computes
// the strided output shape.
func (c Conv) Forward(in Activation) ([]tensor.Block, Activation) {
	if in.Channels <= 0 {
		panic(fmt.Sprintf("nn: conv layer %s needs a Freq/Channels activation, got %+v", c.LayerName, in))
	}
	cv := c.op(in, c.LayerName)
	ops := []tensor.Op{cv}
	out := in
	out.Channels = c.OutC
	out.Freq = cv.OutH()
	out.Time = cv.OutW()
	if c.Activated {
		ops = append(ops, tensor.NewElementwise(out.Elems(), opsPerActElem, c.LayerName+"_act"))
	}
	return once(ops...), out
}

// Backward emits the data-gradient and weight-gradient convolutions,
// each costed as a convolution of the same geometry, matching how
// MIOpen's backward passes launch distinct kernels of comparable work.
func (c Conv) Backward(in Activation) []tensor.Block {
	ops := []tensor.Op{c.op(in, c.LayerName+"_dgrad"), c.op(in, c.LayerName+"_wgrad")}
	if c.Activated {
		cv := c.op(in, "")
		outElems := in.Batch * c.OutC * cv.OutH() * cv.OutW()
		ops = append(ops, tensor.NewElementwise(outElems, opsPerActElem, c.LayerName+"_act_bwd"))
	}
	return once(ops...)
}

// BatchNorm normalizes the current activation: a statistics reduction
// plus a pointwise apply. DS2 places one after its convolutional
// front-end.
type BatchNorm struct {
	LayerName string
}

// NewBatchNorm builds a batch-normalization layer.
func NewBatchNorm(name string) BatchNorm { return BatchNorm{LayerName: name} }

// Name returns the layer name.
func (b BatchNorm) Name() string { return b.LayerName }

// groupCount returns the number of normalization groups (one per channel
// or per feature).
func (b BatchNorm) groupCount(in Activation) int {
	if in.Channels > 0 {
		return in.Channels
	}
	return in.Feat
}

// Forward emits the mean/variance reduction and the normalize-scale-shift
// pointwise op.
func (b BatchNorm) Forward(in Activation) ([]tensor.Block, Activation) {
	return once(
		tensor.NewReduction(in.Elems(), b.groupCount(in), b.LayerName+"_stats"),
		tensor.NewElementwise(in.Elems(), opsPerNormElem, b.LayerName+"_apply"),
	), in
}

// Backward emits the gradient reduction and pointwise gradient.
func (b BatchNorm) Backward(in Activation) []tensor.Block {
	return once(
		tensor.NewReduction(in.Elems(), b.groupCount(in), b.LayerName+"_stats_bwd"),
		tensor.NewElementwise(in.Elems(), opsPerNormElem, b.LayerName+"_apply_bwd"),
	)
}

// LayerNorm normalizes each position's feature vector independently
// (one statistics reduction per batch x time row plus a pointwise
// apply). Transformers normalize around every sub-layer; unlike
// BatchNorm its group count — and therefore its reduction geometry —
// scales with the sequence length.
type LayerNorm struct {
	LayerName string
}

// NewLayerNorm builds a layer-normalization stage.
func NewLayerNorm(name string) LayerNorm { return LayerNorm{LayerName: name} }

// Name returns the layer name.
func (l LayerNorm) Name() string { return l.LayerName }

// Forward emits the per-row statistics reduction and the apply.
func (l LayerNorm) Forward(in Activation) ([]tensor.Block, Activation) {
	rows := in.Batch * in.Time
	return once(
		tensor.NewReduction(in.Elems(), rows, l.LayerName+"_stats"),
		tensor.NewElementwise(in.Elems(), opsPerNormElem, l.LayerName+"_apply"),
	), in
}

// Backward emits the gradient reduction and pointwise gradient.
func (l LayerNorm) Backward(in Activation) []tensor.Block {
	rows := in.Batch * in.Time
	return once(
		tensor.NewReduction(in.Elems(), rows, l.LayerName+"_stats_bwd"),
		tensor.NewElementwise(in.Elems(), opsPerNormElem, l.LayerName+"_apply_bwd"),
	)
}

// Flatten folds a Freq x Channels conv activation into a per-timestep
// feature vector for the recurrent stack (DS2 does this between its
// convolutional front-end and the GRU layers). With CollapseTime set, it
// additionally folds the time/width axis into the feature vector, as a
// CNN does before its classifier head. It launches no kernels.
type Flatten struct {
	LayerName    string
	CollapseTime bool
}

// NewFlatten builds a flatten stage that keeps the time axis (DS2 style).
func NewFlatten(name string) Flatten { return Flatten{LayerName: name} }

// NewFlattenAll builds a flatten stage that folds time away too (CNN style).
func NewFlattenAll(name string) Flatten {
	return Flatten{LayerName: name, CollapseTime: true}
}

// Name returns the layer name.
func (f Flatten) Name() string { return f.LayerName }

// Forward reshapes without launching work.
func (f Flatten) Forward(in Activation) ([]tensor.Block, Activation) {
	out := in
	if in.Channels > 0 {
		out.Feat = in.Channels * in.Freq
		out.Freq, out.Channels = 0, 0
	}
	if f.CollapseTime {
		out.Feat *= out.Time
		out.Time = 1
	}
	return nil, out
}

// Backward launches no work.
func (f Flatten) Backward(Activation) []tensor.Block { return nil }

// Pool is an average/max pooling stage for the CNN model: pointwise cost,
// strided shape change.
type Pool struct {
	LayerName string
	K, S      int
}

// NewPool builds a pooling layer with a KxK window and stride S.
func NewPool(name string, k, s int) Pool {
	if k <= 0 || s <= 0 {
		panic(fmt.Sprintf("nn: invalid pool layer %s", name))
	}
	return Pool{LayerName: name, K: k, S: s}
}

// Name returns the layer name.
func (p Pool) Name() string { return p.LayerName }

// Forward emits the window reduction and computes the pooled shape.
func (p Pool) Forward(in Activation) ([]tensor.Block, Activation) {
	ops := once(tensor.NewElementwise(in.Elems(), p.K*p.K, p.LayerName))
	out := in
	out.Freq = (in.Freq-p.K)/p.S + 1
	out.Time = (in.Time-p.K)/p.S + 1
	if out.Freq < 1 {
		out.Freq = 1
	}
	if out.Time < 1 {
		out.Time = 1
	}
	return ops, out
}

// Backward emits the scatter of pooled gradients.
func (p Pool) Backward(in Activation) []tensor.Block {
	return once(tensor.NewElementwise(in.Elems(), 2, p.LayerName+"_bwd"))
}
