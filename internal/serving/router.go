package serving

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrBadRoute is the typed cause SimulateFleet wraps when a router
// violates its contract by returning an out-of-range or ineligible
// replica. The fleet used to paper over this by silently re-routing to
// the lowest-ID eligible replica, which hid real router bugs inside
// otherwise-plausible results; now the run stops and says so.
var ErrBadRoute = errors.New("serving: router returned an ineligible replica")

// ReplicaView is the router-visible state of one replica at a routing
// instant: enough to implement the classic load-balancing policies
// without exposing the event loop's internals.
type ReplicaView struct {
	// ID is the replica's index in the fleet.
	ID int
	// Live reports whether the replica is currently active (autoscaled
	// fleets deactivate replicas; requests never route to a dead one).
	Live bool
	// Queued is the number of admitted, not-yet-dispatched requests.
	Queued int
	// InFlight is the size of the batch the replica is executing (0
	// when idle).
	InFlight int
	// HasRoom reports whether the replica's bounded queue can admit one
	// more request (always true on unbounded queues).
	HasRoom bool
	// KVBytes is the replica's cache pressure under the KV model: the
	// summed peak footprint of its queued and in-flight requests.
	// Always 0 with KV disabled.
	KVBytes float64
}

// eligible reports whether a request may be routed to the replica.
func (v ReplicaView) eligible() bool { return v.Live && v.HasRoom }

// Outstanding is the replica's total unfinished work in requests.
func (v ReplicaView) Outstanding() int { return v.Queued + v.InFlight }

// Router picks the replica each arriving request joins. Route is
// called once per admitted arrival, in strict arrival order, with the
// full fleet view; at least one replica is eligible (Live && HasRoom —
// when none is, the fleet rejects the request without consulting the
// router). Route must return an eligible replica's ID. Routers may
// keep deterministic internal state (a rotation cursor, a seeded RNG);
// given the same construction and call sequence they must make the
// same picks, which keeps fleet summaries byte-identical across runs.
type Router interface {
	// Name labels the router in reports ("rr", "jsq", "po2(seed=7)").
	Name() string
	// Route returns the chosen replica's ID for req.
	Route(req Request, replicas []ReplicaView) int
}

// Routing names accepted by ParseRouting.
const (
	RoutingRoundRobin       = "rr"
	RoutingLeastOutstanding = "least"
	RoutingJSQ              = "jsq"
	RoutingPowerOfTwo       = "po2"
	RoutingKV               = "kv"
)

// ParseRouting builds a router from its CLI/HTTP spelling: "rr",
// "least", "jsq", "po2" or "kv". seed drives po2's sampling only.
func ParseRouting(name string, seed int64) (Router, error) {
	switch name {
	case RoutingRoundRobin:
		return NewRoundRobin(), nil
	case RoutingLeastOutstanding:
		return NewLeastOutstanding(), nil
	case RoutingJSQ:
		return NewJSQ(), nil
	case RoutingPowerOfTwo:
		return NewPowerOfTwo(seed), nil
	case RoutingKV:
		return NewKVRouter(), nil
	default:
		return nil, fmt.Errorf("serving: unknown routing %q (want %s, %s, %s, %s or %s)",
			name, RoutingRoundRobin, RoutingLeastOutstanding, RoutingJSQ, RoutingPowerOfTwo, RoutingKV)
	}
}

// roundRobin cycles through the replicas in ID order, skipping
// ineligible ones. It is oblivious to queue state — the baseline the
// informed policies are measured against.
type roundRobin struct{ next int }

// NewRoundRobin returns the round-robin router.
func NewRoundRobin() Router { return &roundRobin{} }

func (r *roundRobin) Name() string { return RoutingRoundRobin }

func (r *roundRobin) Route(req Request, replicas []ReplicaView) int {
	// The cursor wraps by comparison rather than a modulo per probe:
	// Route runs once per arrival, and Simulate's single replica makes
	// it the loop's hottest call.
	n := len(replicas)
	i := r.next
	for k := 0; k < n; k++ {
		if i >= n {
			i %= n
		}
		if v := &replicas[i]; v.eligible() {
			if r.next = v.ID + 1; r.next == n {
				r.next = 0
			}
			return v.ID
		}
		i++
	}
	// The fleet never calls Route with no eligible replica; scanning a
	// full cycle without one is unreachable, and the fleet surfaces it
	// as an ErrBadRoute failure rather than guessing a replica.
	return -1
}

// jsq joins the shortest queue: the eligible replica with the fewest
// queued requests, ties toward the lowest ID.
type jsq struct{}

// NewJSQ returns the join-shortest-queue router.
func NewJSQ() Router { return jsq{} }

func (jsq) Name() string { return RoutingJSQ }

func (jsq) Route(req Request, replicas []ReplicaView) int {
	best := -1
	for _, v := range replicas {
		if v.eligible() && (best < 0 || v.Queued < replicas[best].Queued) {
			best = v.ID
		}
	}
	return best
}

// leastOutstanding picks the eligible replica with the fewest
// unfinished requests (queued + in-flight), ties toward the lowest ID.
// Unlike JSQ it sees the batch a replica is still executing, so it
// avoids piling onto a replica that just dispatched its whole queue.
type leastOutstanding struct{}

// NewLeastOutstanding returns the least-outstanding-requests router.
func NewLeastOutstanding() Router { return leastOutstanding{} }

func (leastOutstanding) Name() string { return RoutingLeastOutstanding }

func (leastOutstanding) Route(req Request, replicas []ReplicaView) int {
	best := -1
	for _, v := range replicas {
		if v.eligible() && (best < 0 || v.Outstanding() < replicas[best].Outstanding()) {
			best = v.ID
		}
	}
	return best
}

// kvRouter picks the eligible replica with the least KV-cache
// pressure (queued plus in-flight footprint), ties toward the lowest
// ID — the routing policy that actually sees the resource the
// memory-bound regime contends on. It needs the fleet's KV model to
// be enabled; FleetSpec.Validate rejects the pairing with KV off,
// where every view reports zero pressure.
type kvRouter struct{}

// NewKVRouter returns the least-KV-pressure router.
func NewKVRouter() Router { return kvRouter{} }

func (kvRouter) Name() string { return RoutingKV }

func (kvRouter) Route(req Request, replicas []ReplicaView) int {
	best := -1
	for _, v := range replicas {
		if v.eligible() && (best < 0 || v.KVBytes < replicas[best].KVBytes) {
			best = v.ID
		}
	}
	return best
}

// powerOfTwo samples two distinct eligible replicas with a seeded RNG
// and joins the shorter queue (ties toward the lower ID): the classic
// "power of two choices" compromise that gets most of JSQ's balance
// with O(1) state inspected per arrival.
type powerOfTwo struct {
	seed int64
	rng  *rand.Rand
	ids  []int // reused eligible-ID scratch; Route is serial by contract
}

// NewPowerOfTwo returns the power-of-two-choices router; seed fixes
// its sampling, so equal seeds replay identical choices.
func NewPowerOfTwo(seed int64) Router {
	return &powerOfTwo{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (p *powerOfTwo) Name() string { return fmt.Sprintf("po2(seed=%d)", p.seed) }

func (p *powerOfTwo) Route(req Request, replicas []ReplicaView) int {
	ids := p.ids[:0]
	for _, v := range replicas {
		if v.eligible() {
			ids = append(ids, v.ID)
		}
	}
	p.ids = ids
	switch len(ids) {
	case 0:
		// Unreachable by the Route contract; surfaced by the fleet as
		// ErrBadRoute if it ever happens.
		return -1
	case 1:
		return ids[0]
	}
	ai := p.rng.Intn(len(ids))
	bi := p.rng.Intn(len(ids) - 1)
	if bi >= ai {
		bi++ // sample b from the remaining IDs so the probes are distinct
	}
	a, b := ids[ai], ids[bi]
	if replicas[b].Queued < replicas[a].Queued || (replicas[b].Queued == replicas[a].Queued && b < a) {
		return b
	}
	return a
}
