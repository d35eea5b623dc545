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

// wfqScratch is the pooled pick-assembly state, so a dispatch
// allocates only its returned pick while the policy value itself stays
// immutable. The windowed requests of each tenant form a chain through
// next; slot numbers tenants by first occurrence in the window, and
// cur and last hold each chain's unpicked head and its tail. Every
// field is reset per dispatch and slot is emptied before the scratch
// returns to the pool, so the pooled state never holds a tenant of an
// earlier queue, and each slice is bounded by one window: its length
// is at most the window's request count.
type wfqScratch struct {
	slot      map[string]int // tenant → chain, emptied after each pick
	next      []int          // window index → next index of its tenant, -1 at the tail
	cur, last []int          // per chain: unpicked head and tail index
}

var wfqScratchPool = sync.Pool{New: func() any {
	return &wfqScratch{slot: make(map[string]int)}
}}

// tenantRoundRobin chains the oldest window requests by tenant, then
// takes round r from each tenant's (r+1)-th oldest request, tenants in
// first-occurrence order, until n are picked. A run of requests from
// one tenant costs one map lookup. takeBatch launches picks in queue
// order, so only the membership matters — fairness is who gets a slot,
// not position. The pick is freshly allocated: a caller may still hold
// its Decision while another Decide reuses this scratch.
func tenantRoundRobin(queue []Request, n, window int) []int {
	s := wfqScratchPool.Get().(*wfqScratch)
	limit := min(len(queue), window)
	s.next, s.cur, s.last = s.next[:0], s.cur[:0], s.last[:0]
	for i, chain := 0, -1; i < limit; i++ {
		s.next = append(s.next, -1)
		if i == 0 || queue[i].Tenant != queue[i-1].Tenant {
			var ok bool
			if chain, ok = s.slot[queue[i].Tenant]; !ok {
				chain = len(s.cur)
				s.slot[queue[i].Tenant] = chain
				s.cur = append(s.cur, i)
				s.last = append(s.last, i)
				continue
			}
		}
		s.next[s.last[chain]] = i
		s.last[chain] = i
	}
	clear(s.slot)
	pick := make([]int, 0, n)
	for len(pick) < n {
		took := false
		for chain, i := range s.cur {
			if i < 0 {
				continue
			}
			pick = append(pick, i)
			s.cur[chain] = s.next[i]
			took = true
			if len(pick) == n {
				break
			}
		}
		if !took {
			break
		}
	}
	wfqScratchPool.Put(s)
	return pick
}
