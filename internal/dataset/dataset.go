// Package dataset provides synthetic stand-ins for the corpora the paper
// trains on: LibriSpeech-100h (DeepSpeech2) and IWSLT'15 (GNMT). Real
// audio and text are unavailable and unnecessary — SeqPoint consumes
// only each iteration's padded sequence length — so the substitution
// preserves what matters: the *distribution* of sequence lengths
// (Fig. 7: unimodal and skewed for speech, long-tailed and decreasing
// for translation), the corpus sizes, and the batching policies that
// determine per-iteration SLs (max-of-batch padding, DS2's sorted first
// epoch, NMT-style length bucketing).
//
// Everything is seeded and deterministic.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Corpus is a training (or evaluation) set reduced to its sequence
// lengths: one entry per sample.
type Corpus struct {
	// Name labels the corpus in reports.
	Name string
	// Lengths holds one sequence length per sample.
	Lengths []int
	// Vocab is the symbol vocabulary size of the corpus (key
	// observation 6: it must be preserved when sampling iterations).
	Vocab int
}

// Size returns the number of samples.
func (c *Corpus) Size() int { return len(c.Lengths) }

// Corpus-size and distribution constants. Sizes match the datasets the
// paper evaluates: LibriSpeech train-clean-100 has 28 539 utterances;
// IWSLT'15 En-Vi has 133 317 training sentence pairs. Length ranges
// match the x-axes of the paper's Figs 9, 13, 14 (DS2 sequence lengths
// ~50-500 spectrogram-derived steps, GNMT sentence lengths ~1-220).
const (
	LibriSpeechSize  = 28539
	LibriSpeechEval  = 2703 // dev-clean
	IWSLTSize        = 133317
	IWSLTEval        = 1553    // tst2013
	Libri500Size     = 148688  // train-other-500
	WMT16Size        = 4500966 // En-De sentence pairs
	ds2MinLen        = 50
	ds2MaxLen        = 500
	ds2MeanLen       = 260
	ds2StdLen        = 80
	gnmtMinLen       = 1
	gnmtMaxLen       = 220
	gnmtGammaShape   = 1.6
	gnmtGammaScale   = 22.0
	wmtVocab         = 32000 // WMT16 BPE vocabulary
	evalSeedOffset   = 0x5eed
	defaultBatchSize = 64
)

// Corpus vocabularies, known without generating a corpus.
const (
	// LibriSpeechVocab is the LibriSpeech corpora's vocabulary: English
	// characters plus the CTC blank.
	LibriSpeechVocab = 29
	// IWSLTVocab is the IWSLT'15 corpora's vocabulary (paper Table I).
	IWSLTVocab = 36549
)

// LibriSpeech100h generates the DS2 training corpus: sequence lengths
// drawn from a clipped Gaussian, giving the unimodal, mildly skewed
// histogram of the paper's Fig. 7(a).
func LibriSpeech100h(seed int64) *Corpus {
	return libriSpeech("librispeech-100h", LibriSpeechSize, seed)
}

// LibriSpeechDev generates the DS2 evaluation corpus.
func LibriSpeechDev(seed int64) *Corpus {
	return libriSpeech("librispeech-dev", LibriSpeechEval, seed+evalSeedOffset)
}

func libriSpeech(name string, n int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	lengths := make([]int, n)
	for i := range lengths {
		// Resample out-of-range draws rather than clamping: speech
		// pipelines filter utterances by duration, so the distribution
		// has no artificial spikes at the cut-offs.
		l := ds2MaxLen + 1
		for l > ds2MaxLen || l < ds2MinLen {
			l = int(math.Round(ds2MeanLen + rng.NormFloat64()*ds2StdLen))
			// Right skew: long audiobook utterances stretch the tail,
			// separating the distribution's mean from its median (this
			// skew is why the `median` single-iteration baseline
			// mispredicts).
			if rng.Float64() < 0.22 {
				l += int(rng.ExpFloat64() * 70)
			}
		}
		lengths[i] = l
	}
	return &Corpus{Name: name, Lengths: lengths, Vocab: LibriSpeechVocab}
}

// LibriSpeech500h generates the larger DS2 corpus the paper's
// Section VI-F mentions: LibriSpeech train-other-500, observed by the
// authors to have a similar sequence-length range to the 100-hour set —
// so SeqPoint counts stay flat while the epoch grows, multiplying the
// profiling speedup.
func LibriSpeech500h(seed int64) *Corpus {
	return libriSpeech("librispeech-500h", Libri500Size, seed)
}

// WMT16 generates the larger NMT corpus of Section VI-F: 4.5M sentence
// pairs with the same length range as IWSLT'15.
func WMT16(seed int64) *Corpus {
	c := iwslt("wmt16", WMT16Size, seed)
	c.Vocab = wmtVocab
	return c
}

// IWSLT15 generates the GNMT training corpus: sentence lengths drawn
// from a gamma distribution, giving the decreasing long-tail histogram
// of the paper's Fig. 7(b).
func IWSLT15(seed int64) *Corpus {
	return iwslt("iwslt15", IWSLTSize, seed)
}

// IWSLTTest generates the GNMT evaluation corpus.
func IWSLTTest(seed int64) *Corpus {
	return iwslt("iwslt15-tst2013", IWSLTEval, seed+evalSeedOffset)
}

func iwslt(name string, n int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	lengths := make([]int, n)
	for i := range lengths {
		// Resample over-long sentences rather than clamping: NMT
		// pipelines filter sentences above a maximum length, so the
		// distribution has no artificial spike at the cap.
		l := gnmtMaxLen + 1
		for l > gnmtMaxLen {
			l = int(math.Round(gammaSample(rng, gnmtGammaShape, gnmtGammaScale)))
		}
		if l < gnmtMinLen {
			l = gnmtMinLen
		}
		lengths[i] = l
	}
	return &Corpus{Name: name, Lengths: lengths, Vocab: IWSLTVocab}
}

// gammaSample draws from Gamma(shape k, scale theta) using the
// Marsaglia-Tsang method (with the standard boost for k < 1).
func gammaSample(rng *rand.Rand, k, theta float64) float64 {
	if k < 1 {
		u := rng.Float64()
		return gammaSample(rng, k+1, theta) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * theta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * theta
		}
	}
}

// Subsample returns a corpus of n samples drawn without replacement from
// c (or a copy of c when n >= its size). The vocabulary is preserved, per
// the paper's key observation 6: sampled runs must keep the full
// vocabulary to stay representative. Useful for fast demos over the
// full-size corpora.
func Subsample(c *Corpus, n int, seed int64) *Corpus {
	if n >= c.Size() {
		cp := append([]int(nil), c.Lengths...)
		return &Corpus{Name: c.Name, Lengths: cp, Vocab: c.Vocab}
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(c.Size())[:n]
	lengths := make([]int, n)
	for i, j := range idx {
		lengths[i] = c.Lengths[j]
	}
	return &Corpus{
		Name:    fmt.Sprintf("%s-sub%d", c.Name, n),
		Lengths: lengths,
		Vocab:   c.Vocab,
	}
}

// Synthetic builds an arbitrary corpus from explicit lengths; tests and
// the custom-model example use it.
func Synthetic(name string, lengths []int, vocab int) (*Corpus, error) {
	if len(lengths) == 0 {
		return nil, fmt.Errorf("dataset: corpus %q needs at least one sample", name)
	}
	for i, l := range lengths {
		if l <= 0 {
			return nil, fmt.Errorf("dataset: corpus %q sample %d has non-positive length %d", name, i, l)
		}
	}
	if vocab <= 0 {
		return nil, fmt.Errorf("dataset: corpus %q needs a positive vocabulary", name)
	}
	cp := append([]int(nil), lengths...)
	return &Corpus{Name: name, Lengths: cp, Vocab: vocab}, nil
}
