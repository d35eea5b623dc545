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
	// Name labels the policy in reports ("fixed(8)", "dynamic(8,500us)").
	Name() string
	// MaxBatch is the largest batch the policy will ever form.
	MaxBatch() int
	// Decide renders the verdict for the current queue state.
	Decide(queue []Request, nowUS, nextArrivalUS float64) Decision
}

// batcher is every bundled batching policy: one gate and one pick.
// The gate launches once a full batch is queued, once the oldest
// queued request has waited timeoutUS, or at trace drain; fixed and
// length never time out (timeoutUS is +Inf), so below a full batch
// they wait for arrivals. With pad-to-max batching the longest member
// sets a batch's cost, so the policies differ only in pick: which n of
// the oldest window queued requests share a batch. The value is
// immutable, so one policy may serve concurrent simulations.
type batcher struct {
	name      string
	size      int
	timeoutUS float64
	pick      func(queue []Request, n, window int) []int
}

func (b batcher) Name() string  { return b.name }
func (b batcher) MaxBatch() int { return b.size }

func (b batcher) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	if len(queue) < b.size && !math.IsInf(nextArrivalUS, 1) {
		if deadline := queue[0].ArrivalUS + b.timeoutUS; nowUS < deadline {
			return Decision{WaitUntilUS: deadline}
		}
	}
	return Decision{Dispatch: true, Pick: b.pick(queue, min(b.size, len(queue)), max(16*b.size, minPickWindow))}
}

// minPickWindow is the least number of oldest queued requests a
// selective pick (closest SL, tenant round-robin) considers; the
// window is otherwise 16 batches. Without the bound, a deep backlog
// (burst traces, overload) makes every dispatch sort or bucket the
// whole queue — superlinear total work in the trace length; with it,
// each dispatch is O(window log window) and older requests still
// drain first.
const minPickWindow = 128

func checkSize(label string, size int) error {
	if size <= 0 {
		return fmt.Errorf("serving: %s batch size must be positive, got %d", label, size)
	}
	return nil
}

func checkTimeout(label string, timeoutUS float64) error {
	if timeoutUS < 0 || math.IsNaN(timeoutUS) || math.IsInf(timeoutUS, 0) {
		return fmt.Errorf("serving: %s batch timeout must be a finite non-negative duration, got %v", label, timeoutUS)
	}
	return nil
}

// NewFixedBatch returns the fixed-size batching policy: it waits until
// a full batch is queued, then launches it in FIFO order. Simple and
// throughput-friendly, but at low arrival rates the first request of a
// batch can wait unboundedly — the pathology the dynamic policy exists
// to fix. The trace drain launches partial batches.
func NewFixedBatch(size int) (Policy, error) {
	if err := checkSize("fixed", size); err != nil {
		return nil, err
	}
	return batcher{name: fmt.Sprintf("fixed(%d)", size), size: size, timeoutUS: math.Inf(1), pick: firstN}, nil
}

// NewDynamicBatch returns timeout-bounded dynamic batching (the
// vLLM-style default): launch as soon as a full batch is queued, or
// when the oldest queued request has waited timeoutUS — whichever
// comes first. The timeout caps queueing delay at low load; the size
// cap keeps batches efficient at high load.
func NewDynamicBatch(size int, timeoutUS float64) (Policy, error) {
	if err := checkSize("dynamic", size); err != nil {
		return nil, err
	}
	if err := checkTimeout("dynamic", timeoutUS); err != nil {
		return nil, err
	}
	return batcher{name: fmt.Sprintf("dynamic(%d,%.4gus)", size, timeoutUS), size: size, timeoutUS: timeoutUS, pick: firstN}, nil
}

// NewLengthAware returns the greedy SL-histogram-exploiting batcher:
// it gates like the fixed policy, but instead of the FIFO prefix it
// groups the oldest request with the queued requests whose sequence
// lengths are closest to it. With pad-to-max batching the batch's cost
// is dictated by its longest member, so co-scheduling similar lengths
// cuts padding waste — the serving-side use of the paper's
// observation that SL dictates work. The oldest request is always
// included, so no request starves.
func NewLengthAware(size int) (Policy, error) {
	if err := checkSize("length-aware", size); err != nil {
		return nil, err
	}
	return batcher{name: fmt.Sprintf("length(%d)", size), size: size, timeoutUS: math.Inf(1), pick: closestSL}, nil
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

// firstN picks the indices 0..n-1: the FIFO prefix of the queue.
// The result aliases a shared table and must not be mutated.
func firstN(_ []Request, n, _ int) []int {
	if n <= len(fifoPrefix) {
		return fifoPrefix[:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// laSorter orders candidate queue indices by SL distance from the
// anchor, ties toward earlier arrival. It lives in a sync.Pool so a
// length-aware dispatch costs no sort scratch or comparison-closure
// allocation.
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

// closestSL anchors on the oldest request, then greedily adds the n-1
// requests with the closest SLs among the oldest window; ties break
// toward earlier arrival so the pick is deterministic and FIFO-biased.
func closestSL(queue []Request, n, window int) []int {
	s := laSorterPool.Get().(*laSorter)
	s.idx = s.idx[:0]
	limit := min(len(queue), window)
	for i := 1; i < limit; i++ {
		s.idx = append(s.idx, i)
	}
	s.queue, s.anchor = queue, queue[0].SeqLen
	sort.Sort(s)
	pick := make([]int, 0, n)
	pick = append(pick, 0)
	pick = append(pick, s.idx[:n-1]...)
	s.queue = nil
	laSorterPool.Put(s)
	sort.Ints(pick)
	return pick
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
