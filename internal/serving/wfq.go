package serving

import (
	"fmt"
	"sync"
)

// NewWFQBatch returns tenant-aware weighted-fair batching: it gates
// like the dynamic policy (launch on a full batch, on the oldest
// request's timeout, or at trace drain), but fills the batch
// round-robin across tenants — one request per tenant per round, FIFO
// within each tenant — instead of taking the FIFO prefix. When a bulk
// tenant dumps a clump of requests ahead of an interactive tenant's
// single request, the FIFO prefix serves the whole clump first; the
// fair pick gives every queued tenant a slot each round, which is what
// un-starves interactive tenants (see experiments.TenantSweep for the
// measured story).
//
// On an untenanted queue every request shares the one empty tenant,
// so the pick degenerates to the FIFO prefix and the policy behaves
// exactly like dynamic batching — the strict-generalization property
// the fuzzer holds every policy to.
func NewWFQBatch(size int, timeoutUS float64) (Policy, error) {
	if err := checkSize("wfq", size); err != nil {
		return nil, err
	}
	if err := checkTimeout("wfq", timeoutUS); err != nil {
		return nil, err
	}
	return batcher{name: fmt.Sprintf("wfq(%d,%.4gus)", size, timeoutUS), size: size, timeoutUS: timeoutUS, pick: tenantRoundRobin}, nil
}

// wfqScratch is the pooled pick-assembly state: a dispatch reuses its
// map and tenant order while the policy value itself stays immutable.
// Each tenant's index list is dropped and regrown per dispatch, so the
// map never holds tenants of earlier queues.
type wfqScratch struct {
	byTenant map[string][]int // queue indices per tenant, FIFO order
	order    []string         // tenants by first occurrence in the queue
}

var wfqScratchPool = sync.Pool{New: func() any {
	return &wfqScratch{byTenant: make(map[string][]int)}
}}

// tenantRoundRobin buckets the oldest window requests by tenant, then
// takes round r from each tenant's (r+1)-th oldest request, tenants in
// first-occurrence order, until n are picked. takeBatch launches picks
// in queue order, so only the membership matters — fairness is who
// gets a slot, not position. The pick is freshly allocated: a caller
// may still hold its Decision while another Decide reuses this
// scratch.
func tenantRoundRobin(queue []Request, n, window int) []int {
	s := wfqScratchPool.Get().(*wfqScratch)
	for _, tenant := range s.order {
		delete(s.byTenant, tenant)
	}
	s.order = s.order[:0]
	limit := min(len(queue), window)
	for i := 0; i < limit; i++ {
		tenant := queue[i].Tenant
		lst, ok := s.byTenant[tenant]
		if !ok {
			s.order = append(s.order, tenant)
		}
		s.byTenant[tenant] = append(lst, i)
	}
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
	return pick
}
