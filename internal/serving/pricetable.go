package serving

import (
	"errors"
	"fmt"
	"math"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/trainer"
)

// ErrNonFinitePrice is returned (wrapped) when a profile source yields
// a NaN or infinite batch latency. The table stores NaN as its
// unfilled-slot sentinel, so a non-finite price must be rejected at
// fill time: stored as-is it would be indistinguishable from an empty
// slot, and every later lookup would silently re-fetch it — a refill
// on the hot path masking what is always an upstream cost-model bug.
var ErrNonFinitePrice = errors.New("serving: profile source returned non-finite latency")

// decodeSL is the sequence length a decode step is priced at: one new
// token per sequence flows through the forward pass, so the per-step
// cost of a decode batch is the eval profile at SL 1.
const decodeSL = 1

// priceTable is the flat per-(batch, SL) batch-latency table the
// event loop prices against. Every replica is one GPU, so one table
// serves the whole fleet. It replaces the map-keyed memo the
// simulators were built with: the memo hashed a composite key on every
// launch, where the table is one integer offset into a dense float64
// slice. The maxBatch row is prefetched in one bulk ProfileSource call
// (full batches are the hot case, and the padded SL of any batch is
// one of the trace's SLs); partial-batch sizes fill their slots on
// first use.
//
// With the KV model enabled the table additionally holds a decode row:
// the per-decode-step latency at each batch size, priced at SL 1
// through the same ProfileSource seam. KV-off runs never touch
// (or prefetch) the decode row, so their profile-source call sequence
// is byte-for-byte the pre-KV one.
//
// Unfilled slots hold NaN — a value no valid profile can produce
// (fills reject non-finite prices with ErrNonFinitePrice), so presence
// needs no side bitmap. A table belongs to one run, or to the runs of
// one Runner, which advance serially, so reads and fills take no lock.
type priceTable struct {
	src   trainer.ProfileSource
	timer evalTimer // src's single-key lookup; nil when it has none
	hw    gpusim.Config
	model models.Model

	// slDense maps a sequence length to its 1-based table index (0 =
	// unknown SL) when the trace's max SL is small enough for a dense
	// array; slSparse is the fallback for pathological SLs.
	slDense  []int32
	slSparse map[int]int
	numSL    int

	prices []float64 // [batch-1][slIdx], NaN = unfilled
	decode []float64 // [batch-1] per-decode-step latency; nil when KV is off
}

// maxDenseSL bounds the dense SL-index array: traces with longer
// sequences fall back to a map index without losing correctness.
const maxDenseSL = 1 << 16

// checkFinite validates one fetched price at fill time.
func checkFinite(us float64, batch, sl int) error {
	if math.IsNaN(us) || math.IsInf(us, 0) {
		return fmt.Errorf("%w: %v for batch %d SL %d", ErrNonFinitePrice, us, batch, sl)
	}
	return nil
}

// newPriceTable builds the table over the trace's unique SLs,
// prefetching the maxBatch row — and, with withDecode, the maxBatch
// decode-step price.
func newPriceTable(src trainer.ProfileSource, hw gpusim.Config, model models.Model,
	maxBatch int, uniqueSLs []int, withDecode bool) (*priceTable, error) {
	t := &priceTable{src: src, hw: hw, model: model, numSL: len(uniqueSLs)}
	t.timer, _ = src.(evalTimer)
	maxSL := 0
	for _, sl := range uniqueSLs {
		if sl > maxSL {
			maxSL = sl
		}
	}
	if maxSL < maxDenseSL {
		t.slDense = make([]int32, maxSL+1)
		for i, sl := range uniqueSLs {
			t.slDense[sl] = int32(i) + 1
		}
	} else {
		t.slSparse = make(map[int]int, len(uniqueSLs))
		for i, sl := range uniqueSLs {
			t.slSparse[sl] = i + 1
		}
	}
	t.prices = make([]float64, maxBatch*t.numSL)
	for i := range t.prices {
		t.prices[i] = math.NaN()
	}
	profiles, err := src.EvalProfiles(hw, gpusim.SingleGPU(), model, maxBatch, uniqueSLs)
	if err != nil {
		return nil, err
	}
	// Checked in trace order, so a source with several bad prices
	// names the same one on every run.
	base := (maxBatch - 1) * t.numSL
	for _, sl := range uniqueSLs {
		if prof, ok := profiles[sl]; ok {
			if err := checkFinite(prof.TimeUS, maxBatch, sl); err != nil {
				return nil, err
			}
			t.prices[base+t.slIndex(sl)-1] = prof.TimeUS
		}
	}
	if withDecode {
		t.decode = make([]float64, maxBatch)
		for i := range t.decode {
			t.decode[i] = math.NaN()
		}
		if _, err := t.decodeLatency(maxBatch); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// slIndex returns the 1-based table index for sl, or 0 when the SL is
// not one of the trace's.
func (t *priceTable) slIndex(sl int) int {
	if t.slDense != nil {
		if sl < len(t.slDense) {
			return int(t.slDense[sl])
		}
		return 0
	}
	return t.slSparse[sl]
}

// holds reports whether every SL of sls has a slot in the table.
func (t *priceTable) holds(sls []int) bool {
	for _, sl := range sls {
		if t.slIndex(sl) == 0 {
			return false
		}
	}
	return true
}

// latency prices one batch of the given size padded to sl. The fast
// path is a single indexed load; misses (partial batch sizes, first
// use) fall through to the profile source and fill the slot.
func (t *priceTable) latency(batch, sl int) (float64, error) {
	si := t.slIndex(sl)
	if si == 0 {
		// A padded SL outside the trace's SL set cannot arise from the
		// bundled event loops (the padded SL is some request's SL), but a
		// direct uncached price keeps hypothetical callers correct.
		return t.fetch(batch, sl)
	}
	off := (batch-1)*t.numSL + si - 1
	if us := t.prices[off]; !math.IsNaN(us) {
		return us, nil
	}
	us, err := t.fetch(batch, sl)
	if err != nil {
		return 0, err
	}
	t.prices[off] = us
	return us, nil
}

// decodeLatency prices one decode step of a batch: the forward cost
// of one new token per sequence, filled on first use. Only valid on
// tables built with withDecode.
func (t *priceTable) decodeLatency(batch int) (float64, error) {
	if us := t.decode[batch-1]; !math.IsNaN(us) {
		return us, nil
	}
	us, err := t.fetch(batch, decodeSL)
	if err != nil {
		return 0, err
	}
	t.decode[batch-1] = us
	return us, nil
}

// evalTimer is a profile source that prices one single-GPU eval key
// without a bulk call (engine.Engine does). A fill asks it for the one
// time it stores instead of a one-SL map of whole profiles.
type evalTimer interface {
	EvalTimeUS(hw gpusim.Config, m models.Model, batch, seqLen int) (float64, error)
}

// fetch prices one (batch, SL) through the profile source, rejecting
// non-finite results at the fill boundary. A source without EvalTimeUS
// is asked through EvalProfiles.
func (t *priceTable) fetch(batch, sl int) (float64, error) {
	var us float64
	if t.timer != nil {
		var err error
		if us, err = t.timer.EvalTimeUS(t.hw, t.model, batch, sl); err != nil {
			return 0, err
		}
	} else {
		profiles, err := t.src.EvalProfiles(t.hw, gpusim.SingleGPU(), t.model, batch, []int{sl})
		if err != nil {
			return 0, err
		}
		prof, ok := profiles[sl]
		if !ok {
			return 0, fmt.Errorf("serving: profile source returned no eval profile for batch %d SL %d", batch, sl)
		}
		us = prof.TimeUS
	}
	if err := checkFinite(us, batch, sl); err != nil {
		return 0, err
	}
	return us, nil
}
