package workload

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"seqpoint/internal/dataset"
)

func testCorpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	lengths := make([]int, 64)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	c, err := dataset.Synthetic("test", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestValidateBadTraces is the satellite-1 regression: every malformed
// trace — non-monotone arrivals, negative arrivals, NaN, bad IDs, bad
// SLs — must fail Validate with an error wrapping ErrBadTrace.
func TestValidateBadTraces(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		want string
	}{
		{"empty", Trace{Name: "e"}, "no requests"},
		{"bad ID", Trace{Name: "t", Requests: []Request{{ID: 3, ArrivalUS: 0, SeqLen: 8}}}, "has ID 3"},
		{"bad SL", Trace{Name: "t", Requests: []Request{{ID: 0, ArrivalUS: 0, SeqLen: 0}}}, "sequence length 0"},
		{"negative decode", Trace{Name: "t", Requests: []Request{{ID: 0, SeqLen: 8, DecodeSteps: -1}}}, "negative decode steps"},
		{"negative arrival", Trace{Name: "t", Requests: []Request{{ID: 0, ArrivalUS: -5, SeqLen: 8}}}, "invalid arrival"},
		{"NaN arrival", Trace{Name: "t", Requests: []Request{{ID: 0, ArrivalUS: math.NaN(), SeqLen: 8}}}, "invalid arrival"},
		{"Inf arrival", Trace{Name: "t", Requests: []Request{{ID: 0, ArrivalUS: math.Inf(1), SeqLen: 8}}}, "invalid arrival"},
		{"non-monotone", Trace{Name: "t", Requests: []Request{
			{ID: 0, ArrivalUS: 100, SeqLen: 8},
			{ID: 1, ArrivalUS: 50, SeqLen: 8},
		}}, "before request 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tr.Validate()
			if err == nil {
				t.Fatalf("Validate accepted malformed trace %+v", tc.tr)
			}
			if !errors.Is(err, ErrBadTrace) {
				t.Errorf("error %v does not wrap ErrBadTrace", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	good := Trace{Name: "ok", Requests: []Request{
		{ID: 0, ArrivalUS: 0, SeqLen: 8},
		{ID: 1, ArrivalUS: 0, SeqLen: 4, Tenant: "a"},
		{ID: 2, ArrivalUS: 10, SeqLen: 8, DecodeSteps: 3},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected well-formed trace: %v", err)
	}
}

func TestPoissonAndBurstDeterminism(t *testing.T) {
	c := testCorpus(t)
	a, err := PoissonTrace(c, 500, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonTrace(c, 500, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical Poisson specs produced different traces")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Poisson trace invalid: %v", err)
	}
	other, err := PoissonTrace(c, 500, 1000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical traces")
	}
	burst, err := BurstTrace(c, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range burst.Requests {
		if r.ArrivalUS != 0 {
			t.Fatalf("burst request %d arrives at %v, want 0", r.ID, r.ArrivalUS)
		}
	}
}

func TestReplayTraceRejectsBadArrivals(t *testing.T) {
	_, err := ReplayTrace("bad", []float64{0, 200, 100}, []int{8, 8, 8})
	if err == nil {
		t.Fatal("ReplayTrace accepted non-monotone arrivals")
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("error %v does not wrap ErrBadTrace", err)
	}
	_, err = ReplayTrace("bad", []float64{-1}, []int{8})
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("negative arrival error %v does not wrap ErrBadTrace", err)
	}
}

func TestGenerateDeterministicAndShaped(t *testing.T) {
	spec := GenSpec{
		Requests:   5000,
		RatePerSec: 2000,
		Seed:       7,
		Pattern:    Pattern{Kind: PatternDiurnal, PeriodUS: 1e6, Amplitude: 0.6},
		Cohorts: []Cohort{
			{Class: "chat", Tenants: 4, Weight: 3, ZipfS: 1.1, SeqLens: []int{4, 8, 12}},
			{Class: "bulk", Tenants: 2, Weight: 1, ZipfS: 0, SeqLens: []int{40, 48}, DecodeSteps: 4, Burst: 8},
		},
	}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs produced different traces")
	}
	if len(a.Requests) != spec.Requests {
		t.Fatalf("generated %d requests, want %d", len(a.Requests), spec.Requests)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}

	// Every request is tenanted with its cohort's naming scheme, SL
	// pool, and decode steps.
	counts := make(map[string]int)
	for _, r := range a.Requests {
		counts[r.Tenant]++
		switch {
		case strings.HasPrefix(r.Tenant, "chat-"):
			if r.SeqLen > 12 || r.DecodeSteps != 0 {
				t.Fatalf("chat request %d has SL %d decode %d", r.ID, r.SeqLen, r.DecodeSteps)
			}
		case strings.HasPrefix(r.Tenant, "bulk-"):
			if r.SeqLen < 40 || r.DecodeSteps != 4 {
				t.Fatalf("bulk request %d has SL %d decode %d", r.ID, r.SeqLen, r.DecodeSteps)
			}
		default:
			t.Fatalf("request %d has unexpected tenant %q", r.ID, r.Tenant)
		}
	}
	// Zipf skew: chat-0 must dominate chat-3 (weights 1 vs 1/4^1.1).
	if counts["chat-0"] <= counts["chat-3"] {
		t.Errorf("Zipf skew missing: chat-0=%d chat-3=%d", counts["chat-0"], counts["chat-3"])
	}

	// Bulk clumping: bulk requests arrive in runs sharing an instant.
	clumped := 0
	for i := 1; i < len(a.Requests); i++ {
		cur, prev := a.Requests[i], a.Requests[i-1]
		if strings.HasPrefix(cur.Tenant, "bulk-") && cur.Tenant == prev.Tenant && cur.ArrivalUS == prev.ArrivalUS {
			clumped++
		}
	}
	if clumped == 0 {
		t.Error("bulk cohort with Burst=8 produced no same-instant clumps")
	}
}

// TestGenerateDiurnalShape checks the thinning actually modulates the
// rate: with amplitude 0.9 and phase 0 the first half-period (rate up
// to 1.9×base) must hold clearly more arrivals than the second (down
// to 0.1×base).
func TestGenerateDiurnalShape(t *testing.T) {
	const period = 2e6
	tr, err := Generate(GenSpec{
		Requests:   20000,
		RatePerSec: 10000,
		Seed:       3,
		Pattern:    Pattern{Kind: PatternDiurnal, PeriodUS: period, Amplitude: 0.9},
		Cohorts:    []Cohort{{Class: "c", Tenants: 1, Weight: 1, SeqLens: []int{8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var peak, trough int
	for _, r := range tr.Requests {
		if math.Mod(r.ArrivalUS, period) < period/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak < 2*trough {
		t.Fatalf("diurnal shaping too weak: %d peak-half vs %d trough-half arrivals", peak, trough)
	}
}

func TestGenerateAnonymousCohort(t *testing.T) {
	tr, err := Generate(GenSpec{
		Requests:   100,
		RatePerSec: 1000,
		Seed:       1,
		Cohorts:    []Cohort{{Tenants: 1, Weight: 1, SeqLens: []int{8, 16}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		if r.Tenant != "" {
			t.Fatalf("anonymous cohort produced tenant %q", r.Tenant)
		}
	}
	if got := tr.Tenants(); got != nil {
		t.Fatalf("Tenants() = %v, want nil", got)
	}
}

func TestGenSpecValidation(t *testing.T) {
	base := GenSpec{
		Requests:   10,
		RatePerSec: 100,
		Cohorts:    []Cohort{{Class: "a", Tenants: 1, Weight: 1, SeqLens: []int{8}}},
	}
	bad := []func(*GenSpec){
		func(g *GenSpec) { g.Requests = 0 },
		func(g *GenSpec) { g.RatePerSec = 0 },
		func(g *GenSpec) { g.RatePerSec = math.Inf(1) },
		func(g *GenSpec) { g.Pattern = Pattern{Kind: "weekly"} },
		func(g *GenSpec) { g.Pattern = Pattern{Kind: PatternDiurnal} },
		func(g *GenSpec) { g.Pattern = Pattern{Kind: PatternDiurnal, PeriodUS: 1e6, Amplitude: 1} },
		func(g *GenSpec) { g.Pattern = Pattern{Amplitude: 0.5} },
		func(g *GenSpec) { g.Cohorts = nil },
		func(g *GenSpec) { g.Cohorts[0].Tenants = 0 },
		func(g *GenSpec) { g.Cohorts[0].Weight = -1 },
		func(g *GenSpec) { g.Cohorts[0].ZipfS = -0.5 },
		func(g *GenSpec) { g.Cohorts[0].SeqLens = nil },
		func(g *GenSpec) { g.Cohorts[0].SeqLens = []int{0} },
		func(g *GenSpec) { g.Cohorts[0].DecodeSteps = -1 },
		func(g *GenSpec) { g.Cohorts[0].Burst = -1 },
		func(g *GenSpec) { g.Cohorts[0].Class = ""; g.Cohorts[0].Tenants = 2 },
		func(g *GenSpec) {
			g.Cohorts = append(g.Cohorts, Cohort{Class: "a", Tenants: 1, Weight: 1, SeqLens: []int{4}})
		},
	}
	for i, mutate := range bad {
		g := base
		g.Cohorts = append([]Cohort(nil), base.Cohorts...)
		mutate(&g)
		if _, err := Generate(g); err == nil {
			t.Errorf("mutation %d: Generate accepted invalid spec %+v", i, g)
		}
	}
	if _, err := Generate(base); err != nil {
		t.Fatalf("Generate rejected valid base spec: %v", err)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := Trace{Name: "h", Requests: []Request{
		{ID: 0, ArrivalUS: 0, SeqLen: 8, Tenant: "b-1"},
		{ID: 1, ArrivalUS: 100, SeqLen: 4, Tenant: "a-0"},
		{ID: 2, ArrivalUS: 200, SeqLen: 8, Tenant: "b-1"},
		{ID: 3, ArrivalUS: 1e6, SeqLen: 16},
	}}
	if got, want := tr.Tenants(), []string{"b-1", "a-0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tenants() = %v, want %v", got, want)
	}
	un := tr.Untenanted()
	for _, r := range un.Requests {
		if r.Tenant != "" {
			t.Fatalf("Untenanted left tenant %q on request %d", r.Tenant, r.ID)
		}
	}
	if tr.Requests[0].Tenant != "b-1" {
		t.Fatal("Untenanted mutated the original trace")
	}
	// 4 requests over 1 second.
	if got := tr.ImpliedRatePerSec(); math.Abs(got-4) > 1e-9 {
		t.Errorf("ImpliedRatePerSec() = %v, want 4", got)
	}
}

func TestScaleToRate(t *testing.T) {
	tr := Trace{Name: "s", Requests: []Request{
		{ID: 0, ArrivalUS: 0, SeqLen: 8},
		{ID: 1, ArrivalUS: 5e5, SeqLen: 8},
		{ID: 2, ArrivalUS: 1e6, SeqLen: 8},
	}}
	scaled, err := tr.ScaleToRate(30)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaled.ImpliedRatePerSec(); math.Abs(got-30) > 1e-6 {
		t.Errorf("scaled implied rate = %v, want 30", got)
	}
	// Shape preserved: midpoint stays at half the span.
	if got, want := scaled.Requests[1].ArrivalUS, scaled.Requests[2].ArrivalUS/2; math.Abs(got-want) > 1e-6 {
		t.Errorf("midpoint arrival %v, want %v", got, want)
	}
	if tr.Requests[2].ArrivalUS != 1e6 {
		t.Fatal("ScaleToRate mutated the original trace")
	}
	if _, err := tr.ScaleToRate(0); err == nil {
		t.Error("ScaleToRate accepted rate 0")
	}
	// Zero-span (burst) traces pass through unchanged.
	burst := Trace{Name: "b", Requests: []Request{{ID: 0, SeqLen: 8}}}
	out, err := burst.ScaleToRate(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, burst) {
		t.Errorf("zero-span scale changed the trace: %+v", out)
	}
}
