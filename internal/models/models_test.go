package models

import (
	"testing"
	"testing/quick"

	"seqpoint/internal/tensor"
)

// iterationOps and evalOps flatten a model's blocks into its launches,
// in order.
func iterationOps(m Model, batch, seqLen int) []tensor.Op {
	return tensor.Flatten(m.IterationBlocks(batch, seqLen))
}

func evalOps(m Model, batch, seqLen int) []tensor.Op {
	return tensor.Flatten(m.EvalBlocks(batch, seqLen))
}

func totalFLOPs(ops []tensor.Op) float64 {
	var f float64
	for _, op := range ops {
		f += op.FLOPs()
	}
	return f
}

func findGEMMByLabel(ops []tensor.Op, label string) (tensor.GEMM, bool) {
	for _, op := range ops {
		if g, ok := op.(tensor.GEMM); ok && g.Label == label {
			return g, true
		}
	}
	return tensor.GEMM{}, false
}

func TestModelNames(t *testing.T) {
	if NewDS2().Name() != "ds2" || NewGNMT().Name() != "gnmt" || NewCNN().Name() != "cnn" {
		t.Error("model names")
	}
}

func TestCNNIterationsHomogeneous(t *testing.T) {
	// The Fig. 3 premise: CNN work is identical regardless of "SL".
	m := NewCNN()
	f1 := totalFLOPs(iterationOps(m, 32, 10))
	f2 := totalFLOPs(iterationOps(m, 32, 500))
	if f1 != f2 {
		t.Errorf("CNN FLOPs vary with seqLen: %v vs %v", f1, f2)
	}
}

func TestSQNNIterationsHeterogeneous(t *testing.T) {
	for _, m := range []Model{NewDS2(), NewGNMT()} {
		f1 := totalFLOPs(iterationOps(m, 64, 60))
		f2 := totalFLOPs(iterationOps(m, 64, 120))
		if f2 <= f1 {
			t.Errorf("%s: FLOPs should grow with SL (%v vs %v)", m.Name(), f1, f2)
		}
		// Near-linear: doubling SL roughly doubles work (within 2.5x).
		if ratio := f2 / f1; ratio < 1.5 || ratio > 2.5 {
			t.Errorf("%s: FLOP ratio at 2x SL = %v, want near 2", m.Name(), ratio)
		}
	}
}

func TestDS2ClassifierGEMMTableI(t *testing.T) {
	// The classifier GEMM must have the paper's Table I fixed
	// dimensions: M=29 (alphabet), K=1600 (2x800 bidirectional GRU).
	m := NewDS2()
	ops := iterationOps(m, 64, 200)
	g, ok := findGEMMByLabel(ops, "classifier")
	if !ok {
		t.Fatal("no classifier GEMM")
	}
	if g.M != DS2Alphabet || g.K != 2*DS2GRUHidden {
		t.Errorf("classifier GEMM %dx%dx%d, want M=29 K=1600", g.M, g.N, g.K)
	}
	// N = batch x post-conv sequence length.
	if g.N%64 != 0 {
		t.Errorf("classifier N = %d, want a multiple of the batch", g.N)
	}
}

func TestGNMTClassifierGEMMTableI(t *testing.T) {
	// GNMT's vocabulary projection: M=36549, K=1024 (paper Table I);
	// N = batch*T, so SL 94 at batch 64 gives the paper's N=6016.
	m := NewGNMT()
	g, ok := findGEMMByLabel(iterationOps(m, 64, 94), "classifier")
	if !ok {
		t.Fatal("no classifier GEMM")
	}
	if g.M != GNMTVocab || g.K != GNMTHidden {
		t.Errorf("classifier GEMM M=%d K=%d, want M=36549 K=1024", g.M, g.K)
	}
	if g.N != 6016 {
		t.Errorf("classifier N = %d, want 6016 (= 64 x 94)", g.N)
	}
}

func TestDS2ConvFrontEndShrinksTime(t *testing.T) {
	// DS2's strided conv halves the time axis before the GRU stack, so
	// the recurrent GEMMs see T/2.
	m := NewDS2()
	g, ok := findGEMMByLabel(iterationOps(m, 64, 200), "classifier")
	if !ok {
		t.Fatal("no classifier GEMM")
	}
	postConvT := g.N / 64
	if postConvT >= 200 || postConvT < 90 {
		t.Errorf("post-conv T = %d for input 200, want ~100", postConvT)
	}
}

func TestEvalOpsAreForwardOnly(t *testing.T) {
	for _, m := range []Model{NewDS2(), NewGNMT(), NewCNN()} {
		iter := totalFLOPs(iterationOps(m, 32, 80))
		eval := totalFLOPs(evalOps(m, 32, 80))
		if eval >= iter {
			t.Errorf("%s: eval FLOPs %v should be well below iteration FLOPs %v", m.Name(), eval, iter)
		}
		// Forward pass is roughly a third of fwd+bwd+update.
		if eval < iter/10 {
			t.Errorf("%s: eval FLOPs %v implausibly small vs %v", m.Name(), eval, iter)
		}
	}
}

func TestIterationOpsDeterministic(t *testing.T) {
	// The same (model, batch, SL) must produce the identical op stream:
	// the trainer memoizes profiles per SL on this property (key
	// observation 4/5).
	for _, m := range []Model{NewDS2(), NewGNMT()} {
		a := iterationOps(m, 64, 77)
		b := iterationOps(m, 64, 77)
		if len(a) != len(b) {
			t.Fatalf("%s: op counts differ: %d vs %d", m.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i].Signature() != b[i].Signature() {
				t.Errorf("%s: op %d differs: %s vs %s", m.Name(), i, a[i].Signature(), b[i].Signature())
			}
		}
	}
}

func TestGNMTAttentionPresent(t *testing.T) {
	ops := iterationOps(NewGNMT(), 64, 30)
	if _, ok := findGEMMByLabel(ops, "attention_context"); !ok {
		t.Error("GNMT iteration should include attention context GEMMs")
	}
	if _, ok := findGEMMByLabel(ops, "attention_keys"); !ok {
		t.Error("GNMT iteration should include the hoisted key projection")
	}
}

func TestGNMTEmbeddingKeepsFullVocab(t *testing.T) {
	// Key observation 6: sampling iterations must preserve vocabulary
	// size; the model must always emit full-vocabulary gathers.
	for _, op := range iterationOps(NewGNMT(), 64, 10) {
		if e, ok := op.(tensor.Embedding); ok {
			if e.Rows != GNMTVocab {
				t.Errorf("embedding rows = %d, want %d", e.Rows, GNMTVocab)
			}
		}
	}
}

func TestOptimizerOpsIncluded(t *testing.T) {
	// Training iterations end with the weight-update pass.
	for _, m := range []Model{NewDS2(), NewGNMT(), NewCNN()} {
		ops := iterationOps(m, 8, 60)
		last := ops[len(ops)-1]
		ew, ok := last.(tensor.Elementwise)
		if !ok {
			t.Errorf("%s: last op is %T, want the optimizer elementwise", m.Name(), last)
			continue
		}
		if ew.Label != m.Name()+"_sgd" {
			t.Errorf("%s: last op label %q", m.Name(), ew.Label)
		}
	}
}

func TestQuickDS2FLOPsMonotonicInSL(t *testing.T) {
	m := NewDS2()
	f := func(a, b uint8) bool {
		sl1 := int(a)%400 + 50
		sl2 := sl1 + int(b)%100 + 20
		return totalFLOPs(iterationOps(m, 16, sl2)) > totalFLOPs(iterationOps(m, 16, sl1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickGNMTFLOPsMonotonicInSL(t *testing.T) {
	m := NewGNMT()
	f := func(a, b uint8) bool {
		sl1 := int(a)%100 + 1
		sl2 := sl1 + int(b)%50 + 1
		return totalFLOPs(iterationOps(m, 16, sl2)) > totalFLOPs(iterationOps(m, 16, sl1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickBatchScalesWork(t *testing.T) {
	// At fixed SL, iteration work grows with batch size for every model.
	f := func(b8 uint8) bool {
		b := int(b8)%32 + 1
		for _, m := range []Model{NewDS2(), NewGNMT(), NewCNN()} {
			if totalFLOPs(iterationOps(m, b+8, 64)) <= totalFLOPs(iterationOps(m, b, 64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestBlockCountFixedAcrossSeqLens: an SQNN's per-timestep ops arrive
// as repeated blocks, so its block count is set by the architecture
// alone while the launches it flattens to grow with the sequence length.
func TestBlockCountFixedAcrossSeqLens(t *testing.T) {
	for _, m := range []Model{NewDS2(), NewGNMT(), NewTransformer(), NewSeq2Seq()} {
		for _, phase := range []struct {
			name   string
			blocks func(batch, seqLen int) []tensor.Block
		}{{"train", m.IterationBlocks}, {"eval", m.EvalBlocks}} {
			short, long := phase.blocks(16, 10), phase.blocks(16, 500)
			if len(short) != len(long) {
				t.Errorf("%s %s: %d blocks at SL 10, %d at SL 500", m.Name(), phase.name, len(short), len(long))
			}
			if n10, n500 := len(tensor.Flatten(short)), len(tensor.Flatten(long)); n500 <= n10 {
				t.Errorf("%s %s: %d launches at SL 500, not more than %d at SL 10", m.Name(), phase.name, n500, n10)
			}
		}
	}
}
