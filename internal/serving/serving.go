// Package serving simulates online inference serving: the load-
// dependent regime the paper's offline training and fixed-batch
// inference simulators (Section VII-E) stop short of. Requests arrive
// over time, are routed to one of N replicas, a batching policy decides
// when each replica launches a batch and which queued requests it
// groups, and every per-batch latency comes from the same analytical
// cost model — through the trainer's ProfileSource seam, so the
// engine's cross-run profile cache prices each unique (batch, padded
// SL) forward pass exactly once per process.
//
// This is where SeqPoint-style sequence-length skew matters most: with
// pad-to-max batching the batch's longest request dictates the whole
// batch's latency, so the SL distribution of the arrival stream shapes
// the p95/p99 latency tail long before the server saturates.
//
// The simulator is one deterministic discrete-event loop (fleet.go):
// arrivals are a pre-generated seeded trace (Poisson or replayed),
// replicas advance serially in (time, replica ID) order, and profiling
// parallelism only changes how fast profiles are computed — never a
// single output byte. Simulate is that loop with a single replica.
//
// The arrival side — Request/Trace, the generators and the versioned
// trace file format — lives in internal/workload. Request and Trace
// below are the names this package's specs are written in;
// PoissonTrace and PatternDiurnal forward to workload for the perfbench
// module, which calls them through this package.
package serving

import (
	"seqpoint/internal/dataset"
	"seqpoint/internal/workload"
)

// Request is one inference request of an arrival trace.
type Request = workload.Request

// Trace is an arrival-ordered request sequence.
type Trace = workload.Trace

// PoissonTrace generates n requests with exponentially distributed
// inter-arrival times at ratePerSec requests per second; see
// workload.PoissonTrace.
func PoissonTrace(c *dataset.Corpus, n int, ratePerSec float64, seed int64) (Trace, error) {
	return workload.PoissonTrace(c, n, ratePerSec, seed)
}

// PatternDiurnal is the sinusoidally modulated arrival pattern; see
// workload.PatternDiurnal.
const PatternDiurnal = workload.PatternDiurnal
