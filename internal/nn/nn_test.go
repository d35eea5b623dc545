package nn

import (
	"testing"
	"testing/quick"

	"seqpoint/internal/tensor"
)

func denseIn(batch, time, feat int) Activation {
	return Activation{Batch: batch, Time: time, Feat: feat}
}

// fwd and bwd flatten a layer's blocks into its launches, in order.
func fwd(l Layer, in Activation) ([]tensor.Op, Activation) {
	blocks, out := l.Forward(in)
	return tensor.Flatten(blocks), out
}

func bwd(l Layer, in Activation) []tensor.Op { return tensor.Flatten(l.Backward(in)) }

func totalFLOPs(ops []tensor.Op) float64 {
	var f float64
	for _, op := range ops {
		f += op.FLOPs()
	}
	return f
}

func countKind(ops []tensor.Op, k tensor.Kind) int {
	n := 0
	for _, op := range ops {
		if op.Kind() == k {
			n++
		}
	}
	return n
}

func TestActivationElems(t *testing.T) {
	if got := denseIn(2, 3, 4).Elems(); got != 24 {
		t.Errorf("dense Elems = %d, want 24", got)
	}
	conv := Activation{Batch: 2, Time: 3, Freq: 4, Channels: 5}
	if got := conv.Elems(); got != 120 {
		t.Errorf("conv Elems = %d, want 120", got)
	}
}

func TestActivationValidate(t *testing.T) {
	cases := []struct {
		name string
		a    Activation
		ok   bool
	}{
		{"dense ok", denseIn(1, 1, 1), true},
		{"conv ok", Activation{Batch: 1, Time: 1, Freq: 1, Channels: 1}, true},
		{"no batch", Activation{Time: 1, Feat: 1}, false},
		{"no time", Activation{Batch: 1, Feat: 1}, false},
		{"dense no feat", Activation{Batch: 1, Time: 1}, false},
		{"conv no freq", Activation{Batch: 1, Time: 1, Channels: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.a.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", tc.a, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tc.a)
			}
		})
	}
}

func TestRecurrentUnrollsWithSeqLen(t *testing.T) {
	r := NewRecurrent("lstm", CellLSTM, 256, false)
	in10 := denseIn(8, 10, 256)
	in20 := denseIn(8, 20, 256)
	ops10, _ := fwd(r, in10)
	ops20, _ := fwd(r, in20)
	// Per-timestep recurrent GEMM + gates: op count grows linearly in T.
	if len(ops20) <= len(ops10) {
		t.Errorf("op count: T=20 %d <= T=10 %d", len(ops20), len(ops10))
	}
	// One batched xproj GEMM + T hproj GEMMs.
	if got, want := countKind(ops10, tensor.KindGEMM), 1+10; got != want {
		t.Errorf("GEMM count at T=10 = %d, want %d", got, want)
	}
}

func TestRecurrentGateMultipliers(t *testing.T) {
	lstm := NewRecurrent("l", CellLSTM, 128, false)
	gru := NewRecurrent("g", CellGRU, 128, false)
	in := denseIn(4, 5, 128)
	lstmOps, _ := fwd(lstm, in)
	gruOps, _ := fwd(gru, in)
	// LSTM has 4 gates vs GRU's 3: strictly more arithmetic.
	if totalFLOPs(lstmOps) <= totalFLOPs(gruOps) {
		t.Error("LSTM forward should cost more than GRU at equal size")
	}
	if CellLSTM.gates() != 4 || CellGRU.gates() != 3 {
		t.Errorf("gates: lstm=%d gru=%d", CellLSTM.gates(), CellGRU.gates())
	}
	if CellLSTM.String() != "lstm" || CellGRU.String() != "gru" {
		t.Error("cell kind names")
	}
}

func TestRecurrentBidirectionalDoubles(t *testing.T) {
	uni := NewRecurrent("u", CellGRU, 64, false)
	bi := NewRecurrent("b", CellGRU, 64, true)
	in := denseIn(4, 6, 64)
	uniOps, uniOut := fwd(uni, in)
	biOps, biOut := fwd(bi, in)
	if biOut.Feat != 2*uniOut.Feat {
		t.Errorf("bidirectional out feat = %d, want %d", biOut.Feat, 2*uniOut.Feat)
	}
	ratio := totalFLOPs(biOps) / totalFLOPs(uniOps)
	if ratio < 1.9 || ratio > 2.2 {
		t.Errorf("bidirectional FLOP ratio = %v, want ~2", ratio)
	}
}

func TestRecurrentBackwardMirrorsForward(t *testing.T) {
	r := NewRecurrent("l", CellLSTM, 128, true)
	in := denseIn(8, 12, 128)
	fwdOps, _ := fwd(r, in)
	bwdOps := bwd(r, in)
	// BPTT roughly doubles GEMM work: dgrad + wgrad per forward GEMM.
	ratio := totalFLOPs(bwdOps) / totalFLOPs(fwdOps)
	if ratio < 1.2 || ratio > 2.5 {
		t.Errorf("backward/forward FLOP ratio = %v, want in [1.2, 2.5]", ratio)
	}
}

func TestRecurrentInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero hidden should panic")
		}
	}()
	NewRecurrent("bad", CellLSTM, 0, false)
}

func TestDenseShapes(t *testing.T) {
	d := NewDense("fc", 100, true)
	in := denseIn(4, 7, 50)
	ops, out := fwd(d, in)
	if out.Feat != 100 {
		t.Errorf("out feat = %d, want 100", out.Feat)
	}
	if out.Time != in.Time || out.Batch != in.Batch {
		t.Errorf("dense must preserve batch/time: %+v", out)
	}
	g, ok := ops[0].(tensor.GEMM)
	if !ok {
		t.Fatal("first op should be the GEMM")
	}
	if g.M != 100 || g.N != 4*7 || g.K != 50 {
		t.Errorf("GEMM = %dx%dx%d, want 100x28x50", g.M, g.N, g.K)
	}
	// Activated adds the pointwise op.
	if len(ops) != 2 {
		t.Errorf("activated dense emits %d ops, want 2", len(ops))
	}
	if n := len(bwd(d, in)); n != 3 {
		t.Errorf("backward emits %d ops, want 3 (dgrad+wgrad+act)", n)
	}
}

func TestDenseNVariesWithSeqLen(t *testing.T) {
	// The paper's Table I: the classifier GEMM's N dimension tracks SL.
	d := NewDense("classifier", 29, false)
	ops1, _ := fwd(d, denseIn(64, 100, 1600))
	ops2, _ := fwd(d, denseIn(64, 200, 1600))
	g1 := ops1[0].(tensor.GEMM)
	g2 := ops2[0].(tensor.GEMM)
	if g1.M != g2.M || g1.K != g2.K {
		t.Error("M and K are fixed by the network")
	}
	if g2.N != 2*g1.N {
		t.Errorf("N should double with SL: %d vs %d", g1.N, g2.N)
	}
}

func TestEmbeddingLayer(t *testing.T) {
	e := NewEmbedding("vocab", 36549, 1024)
	in := denseIn(64, 20, 1)
	ops, out := fwd(e, in)
	if out.Feat != 1024 {
		t.Errorf("out feat = %d, want 1024", out.Feat)
	}
	emb, ok := ops[0].(tensor.Embedding)
	if !ok {
		t.Fatal("embedding layer should emit an Embedding op")
	}
	if emb.Lookups != 64*20 {
		t.Errorf("lookups = %d, want %d", emb.Lookups, 64*20)
	}
	if emb.Rows != 36549 {
		t.Errorf("rows = %d: key observation 6 requires the full vocabulary", emb.Rows)
	}
	if len(bwd(e, in)) == 0 {
		t.Error("backward should emit the gradient scatter")
	}
}

func TestSoftmaxOps(t *testing.T) {
	s := NewSoftmax("sm")
	in := denseIn(4, 5, 100)
	ops, out := fwd(s, in)
	if out != in {
		t.Error("softmax preserves the shape")
	}
	if got := countKind(ops, tensor.KindReduction); got != 2 {
		t.Errorf("softmax reductions = %d, want 2 (max + sum)", got)
	}
	if got := countKind(ops, tensor.KindElementwise); got != 1 {
		t.Errorf("softmax pointwise = %d, want 1 (exp)", got)
	}
}

func TestCTCLossScalesWithTime(t *testing.T) {
	c := NewCTCLoss("ctc")
	ops1, _ := fwd(c, denseIn(8, 50, 29))
	ops2, _ := fwd(c, denseIn(8, 100, 29))
	if totalFLOPs(ops2) <= totalFLOPs(ops1) {
		t.Error("CTC work should grow with sequence length")
	}
	if len(bwd(c, denseIn(8, 50, 29))) == 0 {
		t.Error("backward should emit the beta pass")
	}
}

func TestAttentionScalesWithBothLengths(t *testing.T) {
	// Attention is O(T_dec * T_enc): doubling either side grows work.
	base, _ := fwd(NewAttention("att", 256, 50), denseIn(4, 50, 256))
	encX2, _ := fwd(NewAttention("att", 256, 100), denseIn(4, 50, 256))
	decX2, _ := fwd(NewAttention("att", 256, 50), denseIn(4, 100, 256))
	if totalFLOPs(encX2) <= totalFLOPs(base) {
		t.Error("longer encoder should grow attention work")
	}
	if totalFLOPs(decX2) <= totalFLOPs(base) {
		t.Error("longer decoder should grow attention work")
	}
}

func TestAttentionOutputConcatsContext(t *testing.T) {
	a := NewAttention("att", 256, 30)
	_, out := a.Forward(denseIn(4, 10, 512))
	if out.Feat != 512+256 {
		t.Errorf("out feat = %d, want state+context = 768", out.Feat)
	}
}

func TestConvShapesAndStride(t *testing.T) {
	c := NewConv("conv1", 32, 41, 11, 2, 2, 20, 5, true)
	in := Activation{Batch: 64, Time: 400, Freq: 161, Channels: 1}
	ops, out := fwd(c, in)
	if out.Channels != 32 {
		t.Errorf("out channels = %d, want 32", out.Channels)
	}
	if out.Time != (400+10-11)/2+1 {
		t.Errorf("out time = %d", out.Time)
	}
	if len(ops) != 2 {
		t.Errorf("activated conv emits %d ops, want 2", len(ops))
	}
	if len(bwd(c, in)) != 3 {
		t.Errorf("backward should emit dgrad+wgrad+act")
	}
}

func TestConvRequiresConvActivation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("conv over a dense activation should panic")
		}
	}()
	NewConv("c", 8, 3, 3, 1, 1, 1, 1, false).Forward(denseIn(4, 10, 64))
}

func TestBatchNormGroups(t *testing.T) {
	b := NewBatchNorm("bn")
	convIn := Activation{Batch: 4, Time: 10, Freq: 8, Channels: 16}
	denseInA := denseIn(4, 10, 64)
	if got := b.groupCount(convIn); got != 16 {
		t.Errorf("conv groups = %d, want channels 16", got)
	}
	if got := b.groupCount(denseInA); got != 64 {
		t.Errorf("dense groups = %d, want feat 64", got)
	}
	ops, out := fwd(b, convIn)
	if out != convIn {
		t.Error("batch norm preserves shape")
	}
	if len(ops) != 2 {
		t.Errorf("ops = %d, want stats + apply", len(ops))
	}
}

func TestLayerNormRowGroups(t *testing.T) {
	l := NewLayerNorm("ln")
	in := denseIn(4, 10, 64)
	ops, out := fwd(l, in)
	if out != in {
		t.Error("layer norm preserves shape")
	}
	if len(ops) != 2 {
		t.Fatalf("ops = %d, want stats + apply", len(ops))
	}
	red, ok := ops[0].(tensor.Reduction)
	if !ok {
		t.Fatal("first op should be the statistics reduction")
	}
	// One group per batch x time row — scales with SL, unlike BatchNorm.
	if red.Groups != 4*10 {
		t.Errorf("groups = %d, want 40", red.Groups)
	}
	longer, _ := fwd(l, denseIn(4, 20, 64))
	if longer[0].(tensor.Reduction).Groups != 4*20 {
		t.Error("group count must scale with sequence length")
	}
	if len(bwd(l, in)) != 2 {
		t.Error("backward emits stats + apply gradients")
	}
}

func TestFlatten(t *testing.T) {
	f := NewFlatten("flat")
	in := Activation{Batch: 4, Time: 10, Freq: 8, Channels: 16}
	ops, out := f.Forward(in)
	if ops != nil {
		t.Error("flatten launches no kernels")
	}
	if out.Feat != 8*16 || out.Channels != 0 || out.Freq != 0 {
		t.Errorf("flatten out = %+v", out)
	}
	if out.Time != 10 {
		t.Error("flatten keeps the time axis")
	}

	fa := NewFlattenAll("flatall")
	_, out2 := fa.Forward(in)
	if out2.Time != 1 || out2.Feat != 8*16*10 {
		t.Errorf("flatten-all out = %+v", out2)
	}
}

func TestPoolShrinks(t *testing.T) {
	p := NewPool("pool", 2, 2)
	in := Activation{Batch: 4, Time: 16, Freq: 16, Channels: 8}
	_, out := fwd(p, in)
	if out.Freq != 8 || out.Time != 8 {
		t.Errorf("pool out = %+v, want 8x8", out)
	}
	if len(bwd(p, in)) == 0 {
		t.Error("pool backward emits the gradient scatter")
	}
}

func TestQuickRecurrentOpCountLinearInT(t *testing.T) {
	r := NewRecurrent("r", CellGRU, 32, false)
	f := func(t8 uint8) bool {
		T := int(t8)%64 + 1
		ops, _ := fwd(r, denseIn(2, T, 32))
		// 1 xproj + T*(hproj + gates) = 1 + 2T ops.
		return len(ops) == 1+2*T
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickForwardOutputsValid(t *testing.T) {
	// Every layer must map a valid activation to a valid activation.
	layers := []Layer{
		NewRecurrent("r", CellLSTM, 64, true),
		NewDense("d", 32, true),
		NewSoftmax("s"),
		NewEmbedding("e", 1000, 64),
		NewBatchNorm("b"),
	}
	f := func(b8, t8 uint8) bool {
		in := denseIn(int(b8)%16+1, int(t8)%32+1, 64)
		for _, l := range layers {
			_, out := l.Forward(in)
			if err := out.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
