package dataset

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestLibriSpeechShape(t *testing.T) {
	c := LibriSpeech100h(1)
	if c.Size() != LibriSpeechSize {
		t.Errorf("size = %d, want %d", c.Size(), LibriSpeechSize)
	}
	if c.Vocab != 29 {
		t.Errorf("vocab = %d, want 29", c.Vocab)
	}
	lo, hi := slices.Min(c.Lengths), slices.Max(c.Lengths)
	if lo < ds2MinLen || hi > ds2MaxLen {
		t.Errorf("length range [%d,%d] outside [%d,%d]", lo, hi, ds2MinLen, ds2MaxLen)
	}
	// Right skew (mean > median): the property that separates the
	// `frequent`/`median` baselines from the truth.
	mean, median := meanMedian(c.Lengths)
	if mean <= median {
		t.Errorf("DS2 lengths should be right-skewed: mean %.1f <= median %.1f", mean, median)
	}
}

func TestIWSLTShape(t *testing.T) {
	c := IWSLT15(1)
	if c.Size() != IWSLTSize {
		t.Errorf("size = %d, want %d", c.Size(), IWSLTSize)
	}
	if c.Vocab != 36549 {
		t.Errorf("vocab = %d, want 36549", c.Vocab)
	}
	lo, hi := slices.Min(c.Lengths), slices.Max(c.Lengths)
	if lo < gnmtMinLen || hi > gnmtMaxLen {
		t.Errorf("length range [%d,%d] outside [%d,%d]", lo, hi, gnmtMinLen, gnmtMaxLen)
	}
	// Long tail: most sentences are short.
	mean, median := meanMedian(c.Lengths)
	if mean <= median {
		t.Errorf("GNMT lengths should be long-tailed: mean %.1f <= median %.1f", mean, median)
	}
	short := 0
	for _, l := range c.Lengths {
		if l <= 40 {
			short++
		}
	}
	if frac := float64(short) / float64(c.Size()); frac < 0.5 {
		t.Errorf("only %.0f%% of sentences <= 40 words; want a short-dominated tail", frac*100)
	}
}

func meanMedian(lengths []int) (float64, float64) {
	cp := append([]int(nil), lengths...)
	sort.Ints(cp)
	var sum int
	for _, l := range cp {
		sum += l
	}
	return float64(sum) / float64(len(cp)), float64(cp[len(cp)/2])
}

func TestCorporaDeterministic(t *testing.T) {
	a := LibriSpeech100h(7)
	b := LibriSpeech100h(7)
	for i := range a.Lengths {
		if a.Lengths[i] != b.Lengths[i] {
			t.Fatalf("same seed produced different corpora at %d", i)
		}
	}
	c := LibriSpeech100h(8)
	same := true
	for i := range a.Lengths {
		if a.Lengths[i] != c.Lengths[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestEvalCorporaSmaller(t *testing.T) {
	if LibriSpeechDev(1).Size() != LibriSpeechEval {
		t.Error("dev size")
	}
	if IWSLTTest(1).Size() != IWSLTEval {
		t.Error("test size")
	}
}

func TestSynthetic(t *testing.T) {
	c, err := Synthetic("tiny", []int{5, 10, 15}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 || c.Vocab != 100 {
		t.Errorf("corpus = %+v", c)
	}
	// The constructor copies: mutating the input must not leak in.
	in := []int{1, 2}
	c2, err := Synthetic("copy", in, 10)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if c2.Lengths[0] != 1 {
		t.Error("Synthetic should copy its input")
	}
}

func TestSubsample(t *testing.T) {
	c := IWSLT15(1)
	sub := Subsample(c, 1000, 7)
	if sub.Size() != 1000 {
		t.Fatalf("size = %d, want 1000", sub.Size())
	}
	if sub.Vocab != c.Vocab {
		t.Error("subsample must preserve the vocabulary (key observation 6)")
	}
	// Every drawn length exists in the source range.
	lo, hi := slices.Min(c.Lengths), slices.Max(c.Lengths)
	slo, shi := slices.Min(sub.Lengths), slices.Max(sub.Lengths)
	if slo < lo || shi > hi {
		t.Errorf("subsample range [%d,%d] outside source [%d,%d]", slo, shi, lo, hi)
	}
	// Deterministic per seed.
	sub2 := Subsample(c, 1000, 7)
	for i := range sub.Lengths {
		if sub.Lengths[i] != sub2.Lengths[i] {
			t.Fatal("same seed, different subsample")
		}
	}
	// n >= size returns a copy, not an alias.
	full := Subsample(c, c.Size()+10, 1)
	if full.Size() != c.Size() {
		t.Errorf("oversized n should return the full corpus")
	}
	full.Lengths[0] = -1
	if c.Lengths[0] == -1 {
		t.Error("Subsample must copy, not alias")
	}
	// The subsample's distribution shape survives: long tail keeps
	// mean > median.
	mean, median := meanMedian(sub.Lengths)
	if mean <= median {
		t.Errorf("subsample lost the long tail: mean %.1f <= median %.1f", mean, median)
	}
}

func TestSyntheticErrors(t *testing.T) {
	if _, err := Synthetic("x", nil, 10); err == nil {
		t.Error("empty corpus should error")
	}
	if _, err := Synthetic("x", []int{0}, 10); err == nil {
		t.Error("non-positive length should error")
	}
	if _, err := Synthetic("x", []int{1}, 0); err == nil {
		t.Error("non-positive vocab should error")
	}
}

func TestPlanEpochPadToMax(t *testing.T) {
	c, err := Synthetic("t", []int{1, 2, 3, 4, 5, 6, 7, 8}, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanEpoch(c, 4, OrderSorted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Iterations() != 2 {
		t.Fatalf("iterations = %d, want 2", plan.Iterations())
	}
	// Sorted: batches {1,2,3,4} and {5,6,7,8}, padded to 4 and 8.
	if plan.SeqLens[0] != 4 || plan.SeqLens[1] != 8 {
		t.Errorf("seqlens = %v, want [4 8]", plan.SeqLens)
	}
}

func TestPlanEpochDropsIncompleteTail(t *testing.T) {
	c, err := Synthetic("t", []int{1, 2, 3, 4, 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanEpoch(c, 2, OrderSorted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Iterations() != 2 {
		t.Errorf("iterations = %d, want 2 (drop last)", plan.Iterations())
	}
}

func TestPlanEpochErrors(t *testing.T) {
	c, _ := Synthetic("t", []int{1, 2}, 10)
	if _, err := PlanEpoch(c, 0, OrderSorted, 1); err == nil {
		t.Error("zero batch should error")
	}
	if _, err := PlanEpoch(c, 3, OrderSorted, 1); err == nil {
		t.Error("corpus smaller than one batch should error")
	}
	if _, err := PlanEpoch(c, 1, Order(42), 1); err == nil {
		t.Error("unknown order should error")
	}
}

func TestOrderingsPreserveSLMultisetOverSortedBatches(t *testing.T) {
	// Sorted, bucketed and pooled all form batches over the sorted
	// corpus, so an epoch's SL multiset is order-invariant — the
	// property that lets per-epoch projections extend to full runs.
	c := LibriSpeech100h(3)
	ref, err := PlanEpoch(c, 64, OrderSorted, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []Order{OrderBucketed, OrderPooled} {
		p, err := PlanEpoch(c, 64, order, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(ref.SeqLens, p.SeqLens) {
			t.Errorf("%v changes the SL multiset", order)
		}
	}
}

func sameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ca := append([]int(nil), a...)
	cb := append([]int(nil), b...)
	sort.Ints(ca)
	sort.Ints(cb)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

func TestOrderSortedIsAscending(t *testing.T) {
	c := LibriSpeech100h(3)
	p, err := PlanEpoch(c, 64, OrderSorted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(p.SeqLens) {
		t.Error("SortaGrad first epoch should be ascending")
	}
}

func TestOrderBucketedShuffles(t *testing.T) {
	c := LibriSpeech100h(3)
	p, err := PlanEpoch(c, 64, OrderBucketed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sort.IntsAreSorted(p.SeqLens) {
		t.Error("bucketed epoch should not execute in sorted order")
	}
}

func TestOrderPooledKeepsNarrowWindows(t *testing.T) {
	// A contiguous window of pooled iterations covers a narrow SL band
	// relative to the whole range — the property that breaks the
	// `prior` baseline on GNMT (Section VI-E of the paper).
	c := IWSLT15(3)
	p, err := PlanEpoch(c, 64, OrderPooled, 1)
	if err != nil {
		t.Fatal(err)
	}
	loAll, hiAll := minMax(p.SeqLens)
	fullSpan := hiAll - loAll

	window := p.SeqLens[100:116] // one pool
	lo, hi := minMax(window)
	if span := hi - lo; span*4 > fullSpan {
		t.Errorf("one pool spans %d of %d total; pooled windows should be narrow", span, fullSpan)
	}
}

func minMax(xs []int) (int, int) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func TestSchedules(t *testing.T) {
	ds2 := DS2Schedule()
	if ds2.FirstEpoch != OrderSorted || ds2.LaterEpochs != OrderBucketed {
		t.Errorf("DS2Schedule = %+v (SortaGrad: sorted then bucketed)", ds2)
	}
	gnmt := GNMTSchedule()
	if gnmt.FirstEpoch != OrderPooled || gnmt.LaterEpochs != OrderPooled {
		t.Errorf("GNMTSchedule = %+v", gnmt)
	}
}

func TestPlanTraining(t *testing.T) {
	c := LibriSpeech100h(3)
	plans, err := PlanTraining(c, 64, 3, DS2Schedule(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("plans = %d, want 3", len(plans))
	}
	if !sort.IntsAreSorted(plans[0].SeqLens) {
		t.Error("epoch 0 should be sorted")
	}
	if sort.IntsAreSorted(plans[1].SeqLens) {
		t.Error("epoch 1 should be shuffled (bucketed)")
	}
	if _, err := PlanTraining(c, 64, 0, DS2Schedule(), 1); err == nil {
		t.Error("zero epochs should error")
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{
		OrderShuffled: "shuffled",
		OrderSorted:   "sorted",
		OrderBucketed: "bucketed",
		OrderPooled:   "pooled",
		Order(9):      "order(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Order(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestQuickPlanEpochSeqLenIsBatchMax(t *testing.T) {
	// Property: every iteration's padded SL is at least the corpus
	// minimum and at most the corpus maximum, and iteration count is
	// size/batch.
	f := func(raw []uint8, b8 uint8) bool {
		if len(raw) < 2 {
			return true
		}
		lengths := make([]int, len(raw))
		for i, v := range raw {
			lengths[i] = int(v) + 1
		}
		c, err := Synthetic("q", lengths, 10)
		if err != nil {
			return false
		}
		batch := int(b8)%len(lengths) + 1
		for _, order := range []Order{OrderShuffled, OrderSorted, OrderBucketed, OrderPooled} {
			p, err := PlanEpoch(c, batch, order, 1)
			if err != nil {
				return false
			}
			if p.Iterations() != len(lengths)/batch {
				return false
			}
			lo, hi := slices.Min(c.Lengths), slices.Max(c.Lengths)
			for _, sl := range p.SeqLens {
				if sl < lo || sl > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickPlanDeterministicPerSeed(t *testing.T) {
	c := IWSLT15(2)
	f := func(seed int64) bool {
		p1, err1 := PlanEpoch(c, 64, OrderBucketed, seed)
		p2, err2 := PlanEpoch(c, 64, OrderBucketed, seed)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range p1.SeqLens {
			if p1.SeqLens[i] != p2.SeqLens[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
