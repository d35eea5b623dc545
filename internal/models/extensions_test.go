package models

import (
	"testing"

	"seqpoint/internal/nn"
	"seqpoint/internal/tensor"
)

func TestTransformerSuperLinearInSL(t *testing.T) {
	// Self-attention is O(T^2): doubling SL should much more than
	// double the attention work, pushing total FLOPs ratio above the
	// linear regime as SL grows.
	m := NewTransformer()
	f50 := totalFLOPs(iterationOps(m, 16, 50))
	f100 := totalFLOPs(iterationOps(m, 16, 100))
	f200 := totalFLOPs(iterationOps(m, 16, 200))
	r1 := f100 / f50
	r2 := f200 / f100
	if r2 <= r1 {
		t.Errorf("doubling ratio should grow with SL (quadratic attention): %v then %v", r1, r2)
	}
	if r1 < 2 {
		t.Errorf("first doubling ratio %v, want > 2 (super-linear)", r1)
	}
}

func TestTransformerClassifierVocab(t *testing.T) {
	ops := iterationOps(NewTransformer(), 8, 20)
	found := false
	for _, op := range ops {
		if g, ok := op.(tensor.GEMM); ok && g.Label == "classifier" {
			found = true
			if g.M != TransformerVocab {
				t.Errorf("classifier M = %d, want vocab %d", g.M, TransformerVocab)
			}
		}
	}
	if !found {
		t.Error("no classifier GEMM")
	}
}

func TestTransformerEvalForwardOnly(t *testing.T) {
	m := NewTransformer()
	if totalFLOPs(evalOps(m, 8, 40)) >= totalFLOPs(iterationOps(m, 8, 40)) {
		t.Error("eval must be cheaper than a training iteration")
	}
}

func TestSeq2SeqLinearInSL(t *testing.T) {
	m := NewSeq2Seq()
	f50 := totalFLOPs(iterationOps(m, 16, 50))
	f100 := totalFLOPs(iterationOps(m, 16, 100))
	ratio := f100 / f50
	// No attention: strictly linear growth.
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling SL gives FLOP ratio %v, want ~2 (linear)", ratio)
	}
}

func TestSeq2SeqNoAttention(t *testing.T) {
	for _, op := range iterationOps(NewSeq2Seq(), 8, 20) {
		if g, ok := op.(tensor.GEMM); ok {
			if g.Label == "attention_context" || g.Label == "attention_keys" {
				t.Fatalf("seq2seq should have no attention kernels, found %s", g.Label)
			}
		}
	}
}

func TestExtensionModelNames(t *testing.T) {
	if NewTransformer().Name() != "transformer" {
		t.Error("transformer name")
	}
	if NewSeq2Seq().Name() != "seq2seq" {
		t.Error("seq2seq name")
	}
}

func TestCustomModelLifecycle(t *testing.T) {
	m, err := NewCustom("toy", 1000,
		func(batch, seqLen int) nn.Activation {
			return nn.Activation{Batch: batch, Time: seqLen, Feat: 32}
		},
		func(seqLen int) []nn.Layer {
			return []nn.Layer{
				nn.NewRecurrent("r", nn.CellGRU, 32, false),
				nn.NewDense("classifier", 4, false),
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "toy" {
		t.Error("identity")
	}
	ops := iterationOps(m, 4, 10)
	if len(ops) == 0 {
		t.Fatal("no ops")
	}
	// Optimizer pass appended.
	if ew, ok := ops[len(ops)-1].(tensor.Elementwise); !ok || ew.Label != "toy_sgd" {
		t.Error("missing optimizer pass")
	}
	if totalFLOPs(iterationOps(m, 4, 20)) <= totalFLOPs(ops) {
		t.Error("custom SQNN work should grow with SL")
	}
	if len(evalOps(m, 4, 10)) >= len(ops) {
		t.Error("eval should be forward-only")
	}
}

func TestCustomModelValidation(t *testing.T) {
	input := func(b, s int) nn.Activation { return nn.Activation{Batch: b, Time: s, Feat: 1} }
	build := func(int) []nn.Layer { return nil }
	cases := []struct {
		name string
		fn   func() (*Custom, error)
	}{
		{"empty name", func() (*Custom, error) { return NewCustom("", 1, input, build) }},
		{"zero params", func() (*Custom, error) { return NewCustom("x", 0, input, build) }},
		{"nil input", func() (*Custom, error) { return NewCustom("x", 1, nil, build) }},
		{"nil build", func() (*Custom, error) { return NewCustom("x", 1, input, nil) }},
	}
	for _, tc := range cases {
		if _, err := tc.fn(); err == nil {
			t.Errorf("%s should be rejected", tc.name)
		}
	}
}

func TestSLSensitivityBracket(t *testing.T) {
	// Section VII-B bracket: at equal SL doubling, the Transformer's
	// growth factor exceeds Seq2Seq's (quadratic vs linear attention
	// regimes) — SeqPoint must handle both.
	tr := NewTransformer()
	s2s := NewSeq2Seq()
	trRatio := totalFLOPs(iterationOps(tr, 8, 160)) / totalFLOPs(iterationOps(tr, 8, 80))
	s2sRatio := totalFLOPs(iterationOps(s2s, 8, 160)) / totalFLOPs(iterationOps(s2s, 8, 80))
	if trRatio <= s2sRatio {
		t.Errorf("transformer ratio %v should exceed seq2seq ratio %v", trRatio, s2sRatio)
	}
}
