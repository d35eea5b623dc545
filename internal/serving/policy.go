package serving

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Decision is a batching policy's verdict at one decision instant.
type Decision struct {
	// Dispatch, when true, launches the queued requests at the Pick
	// indices as one batch.
	Dispatch bool
	// Pick holds queue indices to launch; consulted only when Dispatch.
	Pick []int
	// WaitUntilUS is the next time the policy wants to be consulted if
	// no request arrives first; +Inf means "only wake me on arrival".
	// Consulted only when !Dispatch.
	WaitUntilUS float64
}

// Policy decides when the server launches a batch and which queued
// requests it groups. Decide is called at every decision instant —
// whenever the server is free and the queue is non-empty — with the
// current queue (oldest first), the clock, and the next arrival time
// (+Inf when the trace is drained). Implementations must be
// deterministic pure functions of their arguments, must dispatch when
// nextArrivalUS is +Inf (nothing else will ever wake the server), and
// must never return an empty Pick with Dispatch set.
type Policy interface {
	// Name labels the policy in reports ("fixed(8)", "dynamic(8,500µs)").
	Name() string
	// MaxBatch is the largest batch the policy will ever form.
	MaxBatch() int
	// Decide renders the verdict for the current queue state.
	Decide(queue []Request, nowUS, nextArrivalUS float64) Decision
}

// fifoPrefix is the shared immutable 0..n-1 index table behind
// firstN. Callers treat a Decision's Pick as read-only (takeBatch
// sorts a private copy), so every FIFO dispatch can alias one table
// instead of allocating — the fixed and dynamic policies pick a
// prefix on every single batch.
var fifoPrefix = func() []int {
	out := make([]int, 4096)
	for i := range out {
		out[i] = i
	}
	return out
}()

// firstN returns the indices 0..n-1: the FIFO prefix of the queue.
// The result aliases a shared table and must not be mutated.
func firstN(n int) []int {
	if n <= len(fifoPrefix) {
		return fifoPrefix[:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// fixedBatch waits until a full batch is queued, then launches it in
// FIFO order. Simple and throughput-friendly, but at low arrival rates
// the first request of a batch can wait unboundedly — the pathology
// the dynamic policy exists to fix. The trace drain launches partial
// batches.
type fixedBatch struct{ size int }

// NewFixedBatch returns the fixed-size batching policy.
func NewFixedBatch(size int) (Policy, error) {
	if size <= 0 {
		return nil, fmt.Errorf("serving: fixed batch size must be positive, got %d", size)
	}
	return fixedBatch{size: size}, nil
}

func (p fixedBatch) Name() string  { return fmt.Sprintf("fixed(%d)", p.size) }
func (p fixedBatch) MaxBatch() int { return p.size }

func (p fixedBatch) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	if len(queue) >= p.size {
		return Decision{Dispatch: true, Pick: firstN(p.size)}
	}
	if math.IsInf(nextArrivalUS, 1) {
		return Decision{Dispatch: true, Pick: firstN(len(queue))}
	}
	return Decision{WaitUntilUS: math.Inf(1)}
}

// dynamicBatch is timeout-bounded dynamic batching (the vLLM-style
// default): launch as soon as a full batch is queued, or when the
// oldest queued request has waited timeoutUS — whichever comes first.
// The timeout caps queueing delay at low load; the size cap keeps
// batches efficient at high load.
type dynamicBatch struct {
	size      int
	timeoutUS float64
}

// NewDynamicBatch returns the timeout-bounded dynamic batching policy.
func NewDynamicBatch(size int, timeoutUS float64) (Policy, error) {
	if size <= 0 {
		return nil, fmt.Errorf("serving: dynamic batch size must be positive, got %d", size)
	}
	if timeoutUS < 0 || math.IsNaN(timeoutUS) || math.IsInf(timeoutUS, 0) {
		return nil, fmt.Errorf("serving: dynamic batch timeout must be a finite non-negative duration, got %v", timeoutUS)
	}
	return dynamicBatch{size: size, timeoutUS: timeoutUS}, nil
}

func (p dynamicBatch) Name() string  { return fmt.Sprintf("dynamic(%d,%.4gus)", p.size, p.timeoutUS) }
func (p dynamicBatch) MaxBatch() int { return p.size }

func (p dynamicBatch) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	if len(queue) >= p.size {
		return Decision{Dispatch: true, Pick: firstN(p.size)}
	}
	deadline := queue[0].ArrivalUS + p.timeoutUS
	if nowUS >= deadline || math.IsInf(nextArrivalUS, 1) {
		return Decision{Dispatch: true, Pick: firstN(len(queue))}
	}
	return Decision{WaitUntilUS: deadline}
}

// lengthAware is the greedy SL-histogram-exploiting batcher: it gates
// like the fixed policy (launch when a full batch is queued), but
// instead of the FIFO prefix it groups the oldest request with the
// queued requests whose sequence lengths are closest to it. With
// pad-to-max batching the batch's cost is dictated by its longest
// member, so co-scheduling similar lengths cuts padding waste — the
// serving-side use of the paper's observation that SL dictates work.
// The oldest request is always included, so no request starves.
type lengthAware struct{ size int }

// NewLengthAware returns the greedy length-aware batching policy.
func NewLengthAware(size int) (Policy, error) {
	if size <= 0 {
		return nil, fmt.Errorf("serving: length-aware batch size must be positive, got %d", size)
	}
	return lengthAware{size: size}, nil
}

func (p lengthAware) Name() string  { return fmt.Sprintf("length(%d)", p.size) }
func (p lengthAware) MaxBatch() int { return p.size }

// candidateWindow bounds how deep into the queue the length-aware
// picker looks: the oldest window of requests, never fewer than
// minLengthAwareWindow. Without the bound, a deep backlog (burst
// traces, overload) makes every dispatch sort the whole queue —
// superlinear total work in the trace length; with it, each dispatch
// is O(window log window) and older requests still drain first.
const minLengthAwareWindow = 128

func (p lengthAware) candidateWindow() int {
	w := 16 * p.size
	if w < minLengthAwareWindow {
		w = minLengthAwareWindow
	}
	return w
}

// laSorter orders candidate queue indices by SL distance from the
// anchor, ties toward earlier arrival. It lives in a sync.Pool so a
// length-aware dispatch costs no sort scratch or comparison-closure
// allocation; the policy value itself stays stateless, which keeps
// Decide safe to call from concurrent simulations sharing one policy.
type laSorter struct {
	idx    []int
	queue  []Request
	anchor int
}

func (s *laSorter) Len() int      { return len(s.idx) }
func (s *laSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *laSorter) Less(a, b int) bool {
	da := absInt(s.queue[s.idx[a]].SeqLen - s.anchor)
	db := absInt(s.queue[s.idx[b]].SeqLen - s.anchor)
	if da != db {
		return da < db
	}
	return s.idx[a] < s.idx[b]
}

var laSorterPool = sync.Pool{New: func() any { return new(laSorter) }}

func (p lengthAware) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	if len(queue) < p.size && !math.IsInf(nextArrivalUS, 1) {
		return Decision{WaitUntilUS: math.Inf(1)}
	}
	n := p.size
	if len(queue) < n {
		n = len(queue)
	}
	// Anchor on the oldest request, then greedily add the n-1 queued
	// requests with the closest SLs among the oldest candidateWindow
	// entries; ties break toward earlier arrival so the pick is
	// deterministic and FIFO-biased.
	anchor := queue[0].SeqLen
	limit := len(queue)
	if w := p.candidateWindow(); limit > w {
		limit = w
	}
	s := laSorterPool.Get().(*laSorter)
	s.idx = s.idx[:0]
	for i := 1; i < limit; i++ {
		s.idx = append(s.idx, i)
	}
	s.queue, s.anchor = queue, anchor
	sort.Sort(s)
	pick := make([]int, 0, n)
	pick = append(pick, 0)
	pick = append(pick, s.idx[:n-1]...)
	s.queue = nil
	laSorterPool.Put(s)
	sort.Ints(pick)
	return Decision{Dispatch: true, Pick: pick}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Policy names accepted by ParsePolicy.
const (
	PolicyFixed   = "fixed"
	PolicyDynamic = "dynamic"
	PolicyLength  = "length"
	PolicyWFQ     = "wfq"
)

// ParsePolicy builds a policy from its CLI/HTTP spelling: "fixed",
// "dynamic", "length" or "wfq". timeoutUS applies to "dynamic" and
// "wfq" only.
func ParsePolicy(name string, size int, timeoutUS float64) (Policy, error) {
	switch name {
	case PolicyFixed:
		return NewFixedBatch(size)
	case PolicyDynamic:
		return NewDynamicBatch(size, timeoutUS)
	case PolicyLength:
		return NewLengthAware(size)
	case PolicyWFQ:
		return NewWFQBatch(size, timeoutUS)
	default:
		return nil, fmt.Errorf("serving: unknown policy %q (want %s, %s, %s or %s)",
			name, PolicyFixed, PolicyDynamic, PolicyLength, PolicyWFQ)
	}
}
