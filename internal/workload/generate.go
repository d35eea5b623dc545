package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"seqpoint/internal/dataset"
)

// This file holds the trace generators. PoissonTrace, BurstTrace and
// ReplayTrace are the original single-tenant arrival processes (moved
// here from internal/serving, byte-identical for a given seed);
// Generate is the multi-tenant production-shaped generator: diurnal
// rate modulation, cohort mixes, Zipf-skewed tenant popularity and
// bulk-submission clumping, all driven by one seeded RNG.

// PoissonTrace generates n requests with exponentially distributed
// inter-arrival times at ratePerSec requests per second, each request's
// sequence length drawn uniformly from the corpus. Everything is
// seeded: the same (corpus, n, rate, seed) yields the same trace. It is
// NewPoissonDraws followed by Trace.
func PoissonTrace(c *dataset.Corpus, n int, ratePerSec float64, seed int64) (Trace, error) {
	d, err := NewPoissonDraws(c, n, seed)
	if err != nil {
		return Trace{}, err
	}
	return d.Trace(ratePerSec)
}

// PoissonDraws holds the rate-free random draws of a Poisson trace: for
// each request, one unit-rate exponential gap and one sequence length,
// drawn in the seeded order PoissonTrace has always used. A caller that
// needs the same workload at many rates, such as a capacity plan's
// probes, draws once and calls Trace per rate.
type PoissonDraws struct {
	corpus  string
	gaps    []float64
	seqLens []int
}

// NewPoissonDraws draws n requests from the corpus under the seed.
func NewPoissonDraws(c *dataset.Corpus, n int, seed int64) (*PoissonDraws, error) {
	if c == nil || c.Size() == 0 {
		return nil, fmt.Errorf("workload: Poisson trace needs a non-empty corpus")
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: request count must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	d := &PoissonDraws{corpus: c.Name, gaps: make([]float64, n), seqLens: make([]int, n)}
	for i := range d.gaps {
		d.gaps[i] = rng.ExpFloat64()
		d.seqLens[i] = c.Lengths[rng.Intn(c.Size())]
	}
	return d, nil
}

// Trace builds the trace at ratePerSec. Each arrival is the previous
// one plus gap / ratePerSec * 1e6, the float operations a single-pass
// generator makes, so the trace at a rate does not depend on which
// rates were built from the draws before it.
func (d *PoissonDraws) Trace(ratePerSec float64) (Trace, error) {
	return d.TraceInto(nil, ratePerSec)
}

// TraceInto is Trace built into buf's array when it holds the trace,
// so a caller that needs one rate at a time reuses one array. The
// returned trace's requests alias that array, and so does any trace
// built into it before.
func (d *PoissonDraws) TraceInto(buf []Request, ratePerSec float64) (Trace, error) {
	if ratePerSec <= 0 || math.IsNaN(ratePerSec) || math.IsInf(ratePerSec, 0) {
		return Trace{}, fmt.Errorf("workload: arrival rate must be a positive finite rate, got %v", ratePerSec)
	}
	reqs := buf[:cap(buf)]
	if len(reqs) < len(d.gaps) {
		reqs = make([]Request, len(d.gaps))
	}
	reqs = reqs[:len(d.gaps)]
	t := 0.0
	for i, gap := range d.gaps {
		t += gap / ratePerSec * 1e6
		reqs[i] = Request{ID: i, ArrivalUS: t, SeqLen: d.seqLens[i]}
	}
	return Trace{
		Name:     fmt.Sprintf("poisson(%s, %.4g rps, n=%d)", d.corpus, ratePerSec, len(reqs)),
		Requests: reqs,
	}, nil
}

// BurstTrace generates n requests that all arrive at time zero, with
// sequence lengths drawn uniformly from the corpus — a fully
// backlogged server. Its achieved throughput is the serving capacity
// of a (model, config, policy) triple, the normalizer load sweeps
// express arrival rates against.
func BurstTrace(c *dataset.Corpus, n int, seed int64) (Trace, error) {
	if c == nil || c.Size() == 0 {
		return Trace{}, fmt.Errorf("workload: burst trace needs a non-empty corpus")
	}
	if n <= 0 {
		return Trace{}, fmt.Errorf("workload: request count must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: i, SeqLen: c.Lengths[rng.Intn(c.Size())]}
	}
	return Trace{Name: fmt.Sprintf("burst(%s, n=%d)", c.Name, n), Requests: reqs}, nil
}

// ReplayTrace builds a trace from explicit arrival offsets (in
// microseconds) and sequence lengths — the replayed-production-log
// arrival process. The two slices pair up element-wise.
func ReplayTrace(name string, arrivalsUS []float64, seqLens []int) (Trace, error) {
	if len(arrivalsUS) != len(seqLens) {
		return Trace{}, fmt.Errorf("workload: replay trace %q has %d arrivals but %d sequence lengths",
			name, len(arrivalsUS), len(seqLens))
	}
	reqs := make([]Request, len(arrivalsUS))
	for i := range reqs {
		reqs[i] = Request{ID: i, ArrivalUS: arrivalsUS[i], SeqLen: seqLens[i]}
	}
	tr := Trace{Name: name, Requests: reqs}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// Arrival-pattern kinds accepted by Pattern.Kind.
const (
	// PatternUniform is a homogeneous Poisson process at the base rate.
	PatternUniform = "uniform"
	// PatternDiurnal modulates the rate sinusoidally:
	// r(t) = base · (1 + Amplitude · sin(2πt/PeriodUS + Phase)),
	// sampled by Lewis-Shedler thinning against the peak rate.
	PatternDiurnal = "diurnal"
)

// Pattern shapes the arrival process's rate over time.
type Pattern struct {
	// Kind selects the shape: PatternUniform (default when empty) or
	// PatternDiurnal.
	Kind string
	// PeriodUS is one diurnal cycle in microseconds (diurnal only).
	PeriodUS float64
	// Amplitude is the peak-to-mean rate swing in [0, 1) (diurnal
	// only): 0.5 means the rate oscillates between 0.5× and 1.5× base.
	Amplitude float64
	// Phase offsets the cycle in radians (diurnal only); 0 starts at
	// the mean rate heading into the peak.
	Phase float64
}

// Validate reports whether the pattern is usable.
func (p Pattern) Validate() error {
	switch p.Kind {
	case "", PatternUniform:
		if p.PeriodUS != 0 || p.Amplitude != 0 || p.Phase != 0 {
			return fmt.Errorf("workload: uniform pattern takes no period/amplitude/phase")
		}
		return nil
	case PatternDiurnal:
		switch {
		case p.PeriodUS <= 0 || math.IsNaN(p.PeriodUS) || math.IsInf(p.PeriodUS, 0):
			return fmt.Errorf("workload: diurnal period must be a positive finite duration, got %v", p.PeriodUS)
		case p.Amplitude < 0 || p.Amplitude >= 1 || math.IsNaN(p.Amplitude):
			return fmt.Errorf("workload: diurnal amplitude must be in [0, 1), got %v", p.Amplitude)
		case math.IsNaN(p.Phase) || math.IsInf(p.Phase, 0):
			return fmt.Errorf("workload: diurnal phase must be finite, got %v", p.Phase)
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown pattern %q (want %s or %s)", p.Kind, PatternUniform, PatternDiurnal)
	}
}

// Cohort is one tenant class of a generated workload: a group of
// tenants sharing a traffic shape (interactive chat vs bulk batch
// inference, say).
type Cohort struct {
	// Class labels the cohort; tenant names are "<Class>-<i>". Empty
	// is allowed only for a single anonymous cohort with one tenant,
	// which emits untenanted requests (pattern shaping without
	// tenancy).
	Class string
	// Tenants is the number of tenants in the cohort.
	Tenants int
	// Weight is the cohort's relative share of arrival events.
	Weight float64
	// ZipfS skews tenant popularity within the cohort: tenant i is
	// drawn with weight 1/(i+1)^ZipfS. 0 means uniform.
	ZipfS float64
	// SeqLens is the pool sequence lengths are drawn uniformly from.
	SeqLens []int
	// DecodeSteps, when positive, stamps every request of the cohort
	// (meaningful under the KV model; inert otherwise).
	DecodeSteps int
	// Burst is the bulk-submission clump size: every arrival event of
	// the cohort emits Burst requests at the same instant from the
	// same tenant (0 and 1 mean no clumping). This is how batch
	// tenants starve interactive ones under FIFO batching — a clump
	// fills the queue in one tick.
	Burst int
}

// Validate reports whether the cohort is usable.
func (c Cohort) Validate() error {
	switch {
	case c.Tenants < 1:
		return fmt.Errorf("workload: cohort %q needs at least one tenant, got %d", c.Class, c.Tenants)
	case c.Class == "" && c.Tenants != 1:
		return fmt.Errorf("workload: anonymous cohort must have exactly one tenant, got %d", c.Tenants)
	case c.Weight <= 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0):
		return fmt.Errorf("workload: cohort %q weight must be positive and finite, got %v", c.Class, c.Weight)
	case c.ZipfS < 0 || math.IsNaN(c.ZipfS) || math.IsInf(c.ZipfS, 0):
		return fmt.Errorf("workload: cohort %q Zipf exponent must be non-negative and finite, got %v", c.Class, c.ZipfS)
	case len(c.SeqLens) == 0:
		return fmt.Errorf("workload: cohort %q needs a sequence-length pool", c.Class)
	case c.DecodeSteps < 0:
		return fmt.Errorf("workload: cohort %q has negative decode steps %d", c.Class, c.DecodeSteps)
	case c.Burst < 0:
		return fmt.Errorf("workload: cohort %q burst must be non-negative, got %d", c.Class, c.Burst)
	}
	for _, sl := range c.SeqLens {
		if sl <= 0 {
			return fmt.Errorf("workload: cohort %q has non-positive sequence length %d", c.Class, sl)
		}
	}
	return nil
}

// GenSpec describes one generated multi-tenant workload.
type GenSpec struct {
	// Name labels the trace; empty derives one from the spec.
	Name string
	// Requests is the total request count (clumps included).
	Requests int
	// RatePerSec is the mean arrival-event rate.
	RatePerSec float64
	// Seed fixes every draw; equal specs yield equal traces.
	Seed int64
	// Pattern shapes the rate over time (zero value = uniform Poisson).
	Pattern Pattern
	// Cohorts is the tenant-class mix; at least one.
	Cohorts []Cohort
}

// Validate reports whether the spec is generable.
func (g GenSpec) Validate() error {
	if g.Requests <= 0 {
		return fmt.Errorf("workload: request count must be positive, got %d", g.Requests)
	}
	if g.RatePerSec <= 0 || math.IsNaN(g.RatePerSec) || math.IsInf(g.RatePerSec, 0) {
		return fmt.Errorf("workload: arrival rate must be a positive finite rate, got %v", g.RatePerSec)
	}
	if err := g.Pattern.Validate(); err != nil {
		return err
	}
	if len(g.Cohorts) == 0 {
		return fmt.Errorf("workload: generator needs at least one cohort")
	}
	seen := make(map[string]bool, len(g.Cohorts))
	for _, c := range g.Cohorts {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Class] {
			return fmt.Errorf("workload: duplicate cohort class %q", c.Class)
		}
		seen[c.Class] = true
	}
	return nil
}

// zipfPicker draws tenant indices by inverse CDF over the cumulative
// 1/(i+1)^s weights — the seeded, allocation-free-at-draw-time Zipf
// sampler. s = 0 degenerates to uniform.
type zipfPicker struct{ cum []float64 }

func newZipfPicker(n int, s float64) zipfPicker {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return zipfPicker{cum: cum}
}

func (z zipfPicker) pick(u float64) int {
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

// Generate produces a multi-tenant trace from the spec: arrival events
// follow the pattern-shaped Poisson process (diurnal via Lewis-Shedler
// thinning against the peak rate), each event picks a cohort by
// weight, a tenant within the cohort by Zipf rank, and emits the
// cohort's clump of requests with uniformly drawn sequence lengths.
// One seeded RNG drives every draw in a fixed order, so the trace is
// deterministic at any parallelism.
func Generate(spec GenSpec) (Trace, error) {
	if err := spec.Validate(); err != nil {
		return Trace{}, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Cohort CDF over weights, in spec order.
	cohortCum := make([]float64, len(spec.Cohorts))
	total := 0.0
	for i, c := range spec.Cohorts {
		total += c.Weight
		cohortCum[i] = total
	}
	for i := range cohortCum {
		cohortCum[i] /= total
	}
	tenantPickers := make([]zipfPicker, len(spec.Cohorts))
	// labels[i][j] is tenant j of cohort i's label, formatted on first
	// use ("" until then: no label is empty).
	labels := make([][]string, len(spec.Cohorts))
	for i, c := range spec.Cohorts {
		tenantPickers[i] = newZipfPicker(c.Tenants, c.ZipfS)
		if c.Class != "" {
			labels[i] = make([]string, c.Tenants)
		}
	}

	kind := spec.Pattern.Kind
	if kind == "" {
		kind = PatternUniform
	}
	// Thinning samples candidate events at the peak rate and accepts
	// each with probability r(t)/peak, yielding the non-homogeneous
	// process exactly.
	peakRate := spec.RatePerSec
	if kind == PatternDiurnal {
		peakRate = spec.RatePerSec * (1 + spec.Pattern.Amplitude)
	}

	reqs := make([]Request, 0, spec.Requests)
	t := 0.0
	for len(reqs) < spec.Requests {
		t += rng.ExpFloat64() / peakRate * 1e6
		if kind == PatternDiurnal {
			r := spec.RatePerSec * (1 + spec.Pattern.Amplitude*math.Sin(2*math.Pi*t/spec.Pattern.PeriodUS+spec.Pattern.Phase))
			if rng.Float64()*peakRate > r {
				continue
			}
		}
		ci := sort.SearchFloat64s(cohortCum, rng.Float64())
		if ci >= len(spec.Cohorts) {
			ci = len(spec.Cohorts) - 1
		}
		c := spec.Cohorts[ci]
		tenant := ""
		if c.Class != "" {
			j := tenantPickers[ci].pick(rng.Float64())
			if labels[ci][j] == "" {
				labels[ci][j] = c.Class + "-" + strconv.Itoa(j)
			}
			tenant = labels[ci][j]
		}
		clump := c.Burst
		if clump < 1 {
			clump = 1
		}
		for k := 0; k < clump && len(reqs) < spec.Requests; k++ {
			reqs = append(reqs, Request{
				ID:          len(reqs),
				ArrivalUS:   t,
				SeqLen:      c.SeqLens[rng.Intn(len(c.SeqLens))],
				DecodeSteps: c.DecodeSteps,
				Tenant:      tenant,
			})
		}
	}

	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("gen(%s, %.4g rps, n=%d, cohorts=%d)", kind, spec.RatePerSec, spec.Requests, len(spec.Cohorts))
	}
	tr := Trace{Name: name, Requests: reqs}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}
