// Package workload owns the arrival side of the serving simulators:
// the Request/Trace types every serving layer consumes, the seeded
// generators that produce them (Poisson, burst, replay, and the
// diurnal/cohort/Zipf multi-tenant generator), and a versioned trace
// file format so a trace recorded once replays identically through the
// CLI, /v1/serve, /v1/fleet and /v1/plan.
//
// The package exists so that "who sent this request, and when" is a
// first-class dimension rather than a raw SL list baked into the
// simulator: every Request carries an optional Tenant, and the serving
// summaries roll latency tails up per tenant. Everything here is
// deterministic — the same spec and seed yield the same trace at any
// parallelism — because the serving goldens byte-compare entire runs.
package workload

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadTrace is the typed cause every trace-validation failure wraps:
// a replayed or loaded trace with non-monotone or negative arrivals
// (or any other malformation) must fail loudly instead of silently
// producing causality-violating schedules. Servers map it to the
// "bad_trace" wire code.
var ErrBadTrace = errors.New("workload: bad trace")

// Request is one inference request of an arrival trace.
type Request struct {
	// ID is the request's index in the trace (arrival order).
	ID int
	// ArrivalUS is the arrival time in microseconds from trace start.
	ArrivalUS float64
	// SeqLen is the request's input sequence length.
	SeqLen int
	// DecodeSteps is the request's decode length under the KV-cache
	// model; 0 falls back to the configured default, and the field is
	// inert with KV disabled.
	DecodeSteps int
	// Tenant identifies the request's sender for multi-tenant traces;
	// empty on single-tenant traces, where every per-tenant roll-up is
	// suppressed and runs stay byte-identical to the pre-tenant format.
	Tenant string
}

// Trace is an arrival-ordered request sequence.
type Trace struct {
	// Name labels the trace in reports.
	Name string
	// Requests are the requests in non-decreasing arrival order.
	Requests []Request
}

// Validate reports whether the trace is well-formed: non-empty, IDs in
// trace order, arrivals non-negative and non-decreasing, SLs positive.
// Every failure wraps ErrBadTrace.
func (t Trace) Validate() error {
	if len(t.Requests) == 0 {
		return fmt.Errorf("%w: trace %q has no requests", ErrBadTrace, t.Name)
	}
	prev := 0.0
	for i, r := range t.Requests {
		if r.ID != i {
			return fmt.Errorf("%w: trace %q request %d has ID %d", ErrBadTrace, t.Name, i, r.ID)
		}
		if r.SeqLen <= 0 {
			return fmt.Errorf("%w: trace %q request %d has sequence length %d", ErrBadTrace, t.Name, i, r.SeqLen)
		}
		if r.DecodeSteps < 0 {
			return fmt.Errorf("%w: trace %q request %d has negative decode steps %d", ErrBadTrace, t.Name, i, r.DecodeSteps)
		}
		if math.IsNaN(r.ArrivalUS) || math.IsInf(r.ArrivalUS, 0) || r.ArrivalUS < 0 {
			return fmt.Errorf("%w: trace %q request %d has invalid arrival %v", ErrBadTrace, t.Name, i, r.ArrivalUS)
		}
		if r.ArrivalUS < prev {
			return fmt.Errorf("%w: trace %q request %d arrives at %v, before request %d at %v",
				ErrBadTrace, t.Name, i, r.ArrivalUS, i-1, prev)
		}
		prev = r.ArrivalUS
	}
	return nil
}

// Tenants returns the distinct non-empty tenant labels of the trace in
// first-arrival order; nil for single-tenant traces.
func (t Trace) Tenants() []string {
	var (
		seen map[string]bool
		out  []string
	)
	for _, r := range t.Requests {
		if r.Tenant == "" {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool)
		}
		if !seen[r.Tenant] {
			seen[r.Tenant] = true
			out = append(out, r.Tenant)
		}
	}
	return out
}

// Untenanted returns a copy of the trace with every tenant label
// cleared — the single-tenant shadow of a multi-tenant trace, used by
// the strict-generalization property tests (a tenanted run must equal
// its untenanted shadow everywhere outside the per-tenant roll-ups).
func (t Trace) Untenanted() Trace {
	reqs := append([]Request(nil), t.Requests...)
	for i := range reqs {
		reqs[i].Tenant = ""
	}
	return Trace{Name: t.Name, Requests: reqs}
}

// ImpliedRatePerSec is the trace's mean offered rate over its arrival
// span: n requests over [0, last arrival]. Zero-span traces (bursts)
// report 0 — there is no meaningful rate to scale.
func (t Trace) ImpliedRatePerSec() float64 {
	n := len(t.Requests)
	if n == 0 {
		return 0
	}
	span := t.Requests[n-1].ArrivalUS
	if span <= 0 {
		return 0
	}
	return float64(n) / (span / 1e6)
}

// ScaleToRate rescales every arrival timestamp so the trace offers
// ratePerSec on average, preserving the arrival process's shape
// (diurnal peaks, clumps, tenant mix). It is how a recorded trace
// drives the capacity planner's load axis: the planner probes at many
// rates, and each probe replays the same trace compressed or dilated.
// Zero-span traces are returned unchanged.
func (t Trace) ScaleToRate(ratePerSec float64) (Trace, error) {
	if ratePerSec <= 0 || math.IsNaN(ratePerSec) || math.IsInf(ratePerSec, 0) {
		return Trace{}, fmt.Errorf("workload: scale rate must be a positive finite rate, got %v", ratePerSec)
	}
	implied := t.ImpliedRatePerSec()
	if implied == 0 {
		return t, nil
	}
	factor := implied / ratePerSec
	reqs := append([]Request(nil), t.Requests...)
	for i := range reqs {
		reqs[i].ArrivalUS *= factor
	}
	return Trace{
		Name:     fmt.Sprintf("%s @ %.4g rps", t.Name, ratePerSec),
		Requests: reqs,
	}, nil
}
