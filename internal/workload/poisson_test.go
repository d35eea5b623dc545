package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seqpoint/internal/dataset"
)

// singlePassPoisson is PoissonTrace as a single-pass generator: one
// seeded RNG draws each request's gap and SL in turn, and the gap is
// scaled to the rate as it is drawn. PoissonDraws must reproduce it
// byte for byte, errors included.
func singlePassPoisson(c *dataset.Corpus, n int, ratePerSec float64, seed int64) (Trace, error) {
	if c == nil || c.Size() == 0 {
		return Trace{}, fmt.Errorf("workload: Poisson trace needs a non-empty corpus")
	}
	if n <= 0 {
		return Trace{}, fmt.Errorf("workload: request count must be positive, got %d", n)
	}
	if ratePerSec <= 0 || math.IsNaN(ratePerSec) || math.IsInf(ratePerSec, 0) {
		return Trace{}, fmt.Errorf("workload: arrival rate must be a positive finite rate, got %v", ratePerSec)
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() / ratePerSec * 1e6
		reqs[i] = Request{ID: i, ArrivalUS: t, SeqLen: c.Lengths[rng.Intn(c.Size())]}
	}
	return Trace{
		Name:     fmt.Sprintf("poisson(%s, %.4g rps, n=%d)", c.Name, ratePerSec, n),
		Requests: reqs,
	}, nil
}

// sameTraceBits reports the first difference between two traces, with
// arrivals compared bit for bit.
func sameTraceBits(got, want Trace) error {
	if got.Name != want.Name {
		return fmt.Errorf("name %q, want %q", got.Name, want.Name)
	}
	if len(got.Requests) != len(want.Requests) {
		return fmt.Errorf("%d requests, want %d", len(got.Requests), len(want.Requests))
	}
	for i, g := range got.Requests {
		w := want.Requests[i]
		if math.Float64bits(g.ArrivalUS) != math.Float64bits(w.ArrivalUS) || g.ID != w.ID || g.SeqLen != w.SeqLen ||
			g.DecodeSteps != w.DecodeSteps || g.Tenant != w.Tenant {
			return fmt.Errorf("request %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestPoissonDrawsMatchSinglePass holds PoissonDraws.Trace, and
// PoissonTrace through it, to the single-pass generator over seeds,
// lengths and rates, with rates revisited and built in an order that
// is not sorted, so a trace cannot depend on the ones built before it.
// TraceInto builds every rate into one array that holds the previous
// rate's trace, and into an array too short for the trace (a nil one
// first), and must match too.
func TestPoissonDrawsMatchSinglePass(t *testing.T) {
	c := testCorpus(t)
	rates := []float64{1000, 0.5, 123.456, 3e7, 1e-3, 1000, 750.25}
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		for _, n := range []int{1, 2, 97, 1500} {
			d, err := NewPoissonDraws(c, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			var reused Trace
			short := make([]Request, n-1)
			for _, rate := range rates {
				want, err := singlePassPoisson(c, n, rate, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Trace(rate)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTraceBits(got, want); err != nil {
					t.Fatalf("seed %d n %d rate %v: draws: %v", seed, n, rate, err)
				}
				direct, err := PoissonTrace(c, n, rate, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTraceBits(direct, want); err != nil {
					t.Fatalf("seed %d n %d rate %v: PoissonTrace: %v", seed, n, rate, err)
				}
				held := reused.Requests
				if reused, err = d.TraceInto(held, rate); err != nil {
					t.Fatal(err)
				}
				if err := sameTraceBits(reused, want); err != nil {
					t.Fatalf("seed %d n %d rate %v: TraceInto: %v", seed, n, rate, err)
				}
				if held != nil && &reused.Requests[0] != &held[0] {
					t.Fatalf("seed %d n %d rate %v: TraceInto did not build into the array it was handed", seed, n, rate)
				}
				into, err := d.TraceInto(short, rate)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTraceBits(into, want); err != nil {
					t.Fatalf("seed %d n %d rate %v: TraceInto a short array: %v", seed, n, rate, err)
				}
				stale := make([]Request, n+3)
				for i := range stale {
					stale[i] = Request{ID: -1, ArrivalUS: -1, SeqLen: -1, DecodeSteps: 9, Tenant: "stale"}
				}
				if into, err = d.TraceInto(stale, rate); err != nil {
					t.Fatal(err)
				}
				if err := sameTraceBits(into, want); err != nil {
					t.Fatalf("seed %d n %d rate %v: TraceInto an array of other requests: %v", seed, n, rate, err)
				}
			}
		}
	}
}

// TestPoissonErrorOrder checks that PoissonTrace reports the first of
// several bad arguments the single-pass generator reports: the corpus,
// then the count, then the rate.
func TestPoissonErrorOrder(t *testing.T) {
	good := testCorpus(t)
	empty := &dataset.Corpus{Name: "empty"}
	cases := []struct {
		c    *dataset.Corpus
		n    int
		rate float64
	}{
		{nil, 0, 0},
		{empty, -1, math.NaN()},
		{empty, 10, 100},
		{good, 0, 0},
		{good, -5, math.Inf(1)},
		{good, 10, 0},
		{good, 10, -1},
		{good, 10, math.NaN()},
		{good, 10, math.Inf(1)},
	}
	for _, tc := range cases {
		_, want := singlePassPoisson(tc.c, tc.n, tc.rate, 1)
		_, got := PoissonTrace(tc.c, tc.n, tc.rate, 1)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("PoissonTrace(%v, %d, %v): error %v, want %v", tc.c, tc.n, tc.rate, got, want)
		}
	}
}
