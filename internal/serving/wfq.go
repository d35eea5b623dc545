package serving

import (
	"fmt"
	"math"
	"sync"
)

// wfqBatch is tenant-aware weighted-fair batching: it gates like the
// dynamic policy (launch on a full batch, on the oldest request's
// timeout, or at trace drain), but fills the batch round-robin across
// tenants — one request per tenant per round, FIFO within each tenant
// — instead of taking the FIFO prefix. When a bulk tenant dumps a
// clump of requests ahead of an interactive tenant's single request,
// the FIFO prefix serves the whole clump first; the fair pick gives
// every queued tenant a slot each round, which is what un-starves
// interactive tenants (see experiments.TenantSweep for the measured
// story).
//
// On an untenanted queue every request shares the one empty tenant,
// so the pick degenerates to the FIFO prefix and the policy behaves
// exactly like dynamic batching — the strict-generalization property
// the fuzzer holds every policy to.
type wfqBatch struct {
	size      int
	timeoutUS float64
}

// NewWFQBatch returns the tenant-aware weighted-fair batching policy.
func NewWFQBatch(size int, timeoutUS float64) (Policy, error) {
	if size <= 0 {
		return nil, fmt.Errorf("serving: wfq batch size must be positive, got %d", size)
	}
	if timeoutUS < 0 || math.IsNaN(timeoutUS) || math.IsInf(timeoutUS, 0) {
		return nil, fmt.Errorf("serving: wfq batch timeout must be a finite non-negative duration, got %v", timeoutUS)
	}
	return wfqBatch{size: size, timeoutUS: timeoutUS}, nil
}

func (p wfqBatch) Name() string  { return fmt.Sprintf("wfq(%d,%.4gus)", p.size, p.timeoutUS) }
func (p wfqBatch) MaxBatch() int { return p.size }

// wfqScratch is the pooled pick-assembly state, so a dispatch costs no
// steady-state allocation while the policy value itself stays
// stateless (one policy value may serve concurrent simulations).
type wfqScratch struct {
	byTenant map[string][]int // queue indices per tenant, FIFO order
	order    []string         // tenants by first occurrence in the queue
}

var wfqScratchPool = sync.Pool{New: func() any {
	return &wfqScratch{byTenant: make(map[string][]int)}
}}

// wfqCandidateWindow bounds how deep into the queue the fair picker
// looks, like the length-aware policy's window: a deep overload
// backlog must not make every dispatch bucket the whole queue.
func (p wfqBatch) candidateWindow() int {
	w := 16 * p.size
	if w < minLengthAwareWindow {
		w = minLengthAwareWindow
	}
	return w
}

func (p wfqBatch) Decide(queue []Request, nowUS, nextArrivalUS float64) Decision {
	drain := math.IsInf(nextArrivalUS, 1)
	if len(queue) < p.size && !drain {
		deadline := queue[0].ArrivalUS + p.timeoutUS
		if nowUS < deadline {
			return Decision{WaitUntilUS: deadline}
		}
	}
	n := p.size
	if len(queue) < n {
		n = len(queue)
	}
	limit := len(queue)
	if w := p.candidateWindow(); limit > w {
		limit = w
	}
	s := wfqScratchPool.Get().(*wfqScratch)
	for _, tenant := range s.order {
		delete(s.byTenant, tenant)
	}
	s.order = s.order[:0]
	for i := 0; i < limit; i++ {
		tenant := queue[i].Tenant
		lst, ok := s.byTenant[tenant]
		if !ok {
			s.order = append(s.order, tenant)
		}
		s.byTenant[tenant] = append(lst, i)
	}
	// Round-robin across tenants in first-occurrence order: round r
	// takes each tenant's (r+1)-th oldest request until the batch is
	// full. takeBatch launches picks in queue order, so only the
	// membership matters — fairness is who gets a slot, not position.
	// The pick is freshly allocated: a caller may still hold its
	// Decision while another Decide reuses this scratch.
	pick := make([]int, 0, n)
	for round := 0; len(pick) < n; round++ {
		took := false
		for _, tenant := range s.order {
			lst := s.byTenant[tenant]
			if round < len(lst) {
				pick = append(pick, lst[round])
				took = true
				if len(pick) == n {
					break
				}
			}
		}
		if !took {
			break
		}
	}
	wfqScratchPool.Put(s)
	return Decision{Dispatch: true, Pick: pick}
}
