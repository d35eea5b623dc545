package serving

import (
	"errors"
	"fmt"
	"math"

	"seqpoint/internal/models"
)

// Memory-aware serving: the KV-cache capacity model. With KV enabled
// (Spec.KV / FleetSpec.KV non-nil) every request is a prefill over its
// SeqLen input tokens followed by DecodeSteps autoregressive steps,
// and while it executes the replica holds (SeqLen + steps) tokens of
// cache per request at KVConfig.BytesPerToken each, against a
// per-replica capacity ceiling. Batches are priced in two phases
// through the same ProfileSource seam: the prefill at the batch's
// padded SL, plus max-steps decode steps each priced at SL 1
// (pad-to-max decode — the batch completes together). TTFT is the
// prefill's completion: the instant the first output token exists.
//
// When a policy's pick would overflow the ceiling the replica
// preempts, policy-selectably:
//
//   - PreemptEvict (default): the maximal fitting prefix launches; the
//     displaced requests are evicted back to the queue front to be
//     re-batched (recomputed) later.
//   - PreemptBlock: the full pick is served as consecutive
//     capacity-bounded waves within one busy period — later waves
//     block on the cache the earlier ones hold.
//
// Both surface as preemption counts and, under load, as exactly the
// OOM-driven tail inflation the compute-only model cannot express.
// With KV disabled none of this code runs: pricing, the ProfileSource
// call sequence and every output byte match the KV-less simulator.

// Preemption policy names accepted by KVConfig.Preempt.
const (
	// PreemptEvict launches the maximal fitting prefix of a batch and
	// returns the displaced requests to the queue front.
	PreemptEvict = "evict"
	// PreemptBlock serves an over-capacity batch as consecutive
	// capacity-bounded waves within one busy period.
	PreemptBlock = "block"
)

// RejectReasonKVCapacity marks a request whose own cache footprint
// exceeds a replica's capacity: it can never be served, so the fleet
// rejects it at admission rather than wedging a queue.
const RejectReasonKVCapacity = "kv_capacity"

// ErrKVCapacity is the typed cause Simulate wraps when a request's own
// cache footprint exceeds the capacity: the single-queue server has no
// admission controller to reject it, so it refuses the whole trace.
var ErrKVCapacity = errors.New("serving: KV capacity exceeded")

// Disagg stage selectors (internal): which phase of a request a fleet
// stage executes. The zero value is the aggregated both-phase server.
const (
	phaseBoth = iota
	phasePrefill
	phaseDecode
)

// KVConfig enables the per-replica KV-cache capacity model.
type KVConfig struct {
	// CapacityBytes is the per-replica cache ceiling in bytes.
	CapacityBytes float64
	// DecodeSteps is the decode length applied to requests that do not
	// carry their own (Request.DecodeSteps == 0). 0 means requests are
	// prefill-only unless they say otherwise.
	DecodeSteps int
	// BytesPerToken overrides the per-token cache footprint; 0 derives
	// it from the model (models.KVBytesPerToken).
	BytesPerToken float64
	// Preempt selects the over-capacity behavior: PreemptEvict
	// (default) or PreemptBlock.
	Preempt string

	// phase restricts the server to one request phase; only the
	// disaggregated topology's internal stages set it.
	phase int
}

// Validate reports whether the configuration is usable.
func (k KVConfig) Validate() error {
	switch {
	case math.IsNaN(k.CapacityBytes) || math.IsInf(k.CapacityBytes, 0) || k.CapacityBytes <= 0:
		return fmt.Errorf("serving: KV capacity must be a positive finite byte count, got %v", k.CapacityBytes)
	case k.DecodeSteps < 0:
		return fmt.Errorf("serving: KV decode steps must be non-negative, got %d", k.DecodeSteps)
	case math.IsNaN(k.BytesPerToken) || math.IsInf(k.BytesPerToken, 0) || k.BytesPerToken < 0:
		return fmt.Errorf("serving: KV bytes-per-token must be a non-negative finite byte count, got %v", k.BytesPerToken)
	}
	switch k.Preempt {
	case "", PreemptEvict, PreemptBlock:
		return nil
	default:
		return fmt.Errorf("serving: unknown KV preemption policy %q (want %s or %s)",
			k.Preempt, PreemptEvict, PreemptBlock)
	}
}

// KVRunStats is the cache model's roll-up of one run.
type KVRunStats struct {
	// BytesPerToken and CapacityBytes echo the resolved configuration.
	BytesPerToken float64 `json:"bytes_per_token"`
	CapacityBytes float64 `json:"capacity_bytes"`
	// PeakBytes is the largest cache footprint any replica held.
	PeakBytes float64 `json:"peak_bytes"`
	// Preemptions counts requests displaced by the capacity ceiling
	// (evicted to the queue, or blocked into a later wave).
	Preemptions int `json:"preemptions"`
}

// kvState is the resolved, immutable KV configuration a run executes
// under.
type kvState struct {
	capacity float64
	bpt      float64
	steps    int // default decode steps
	preempt  string
	phase    int
}

// newKVState resolves cfg against the served model. cfg must already
// be validated.
func newKVState(cfg *KVConfig, m models.Model) *kvState {
	bpt := cfg.BytesPerToken
	if bpt == 0 {
		bpt = models.KVBytesPerToken(m)
	}
	preempt := cfg.Preempt
	if preempt == "" {
		preempt = PreemptEvict
	}
	return &kvState{
		capacity: cfg.CapacityBytes,
		bpt:      bpt,
		steps:    cfg.DecodeSteps,
		preempt:  preempt,
		phase:    cfg.phase,
	}
}

// decodeSteps is the request's effective decode length: its own, or
// the configured default. A prefill-only stage decodes nothing.
func (k *kvState) decodeSteps(r Request) int {
	if k.phase == phasePrefill {
		return 0
	}
	if r.DecodeSteps > 0 {
		return r.DecodeSteps
	}
	return k.steps
}

// peakBytes is the cache footprint the request holds at its largest:
// its full context (input plus generated tokens) for decoding
// servers, the input alone for a prefill-only stage.
func (k *kvState) peakBytes(r Request) float64 {
	tokens := r.SeqLen
	if k.phase != phasePrefill {
		tokens += k.decodeSteps(r)
	}
	return float64(tokens) * k.bpt
}

// kvReqTime is one launched request's timing within its busy period,
// as offsets from the launch instant: batch-start, first-token
// (prefill completion) and completion, plus the wave it ran in.
type kvReqTime struct {
	startOff, firstOff, doneOff float64
	batch, paddedSL             int
}

// kvPlan is the priced execution plan of one policy pick under the
// capacity ceiling.
type kvPlan struct {
	// keep is the number of batch-prefix requests launched now; under
	// PreemptEvict the remainder is displaced back to the queue.
	keep int
	// waves is the number of priced sub-batches the launch runs
	// (always 1 without preemption).
	waves int
	// totalLat is the busy period: the summed wave latencies.
	totalLat float64
	// peak is the largest single-wave cache footprint; keptKV the
	// summed footprint of the launched requests.
	peak, keptKV float64
	// preempts counts the requests displaced past the first wave (or
	// out of the launch entirely, under eviction).
	preempts int
}

// plan partitions batch (in queue order) into capacity-fitting waves
// and prices each through the table: prefill at the wave's padded SL
// plus pad-to-max decode steps at the wave's size. times is a reused
// scratch slice; the returned slice holds one kvReqTime per kept
// request. Requests individually over capacity are the caller's to
// screen out; hitting one here is an error.
func (k *kvState) plan(prices *priceTable, batch []Request, times []kvReqTime) (kvPlan, []kvReqTime, error) {
	p := kvPlan{keep: len(batch)}
	times = times[:0]
	var off float64 // busy-period offset of the current wave
	wStart := 0
	var kvSum float64

	flush := func(end int) error {
		if end == wStart {
			return nil
		}
		wave := batch[wStart:end]
		paddedSL, maxSteps := 0, 0
		for _, q := range wave {
			if q.SeqLen > paddedSL {
				paddedSL = q.SeqLen
			}
			if s := k.decodeSteps(q); s > maxSteps {
				maxSteps = s
			}
		}
		var prefill float64
		if k.phase != phaseDecode {
			var err error
			if prefill, err = prices.latency(len(wave), paddedSL); err != nil {
				return err
			}
		}
		waveLat := prefill
		if maxSteps > 0 {
			step, err := prices.decodeLatency(len(wave))
			if err != nil {
				return err
			}
			waveLat += float64(maxSteps) * step
		}
		for range wave {
			times = append(times, kvReqTime{
				startOff: off,
				firstOff: off + prefill,
				doneOff:  off + waveLat,
				batch:    len(wave),
				paddedSL: paddedSL,
			})
		}
		off += waveLat
		p.waves++
		p.keptKV += kvSum
		if kvSum > p.peak {
			p.peak = kvSum
		}
		return nil
	}

	for i := 0; i < len(batch); i++ {
		need := k.peakBytes(batch[i])
		if need > k.capacity {
			return p, times, fmt.Errorf("serving: request %d needs %v KV bytes, above the %v-byte replica capacity",
				batch[i].ID, need, k.capacity)
		}
		if kvSum+need > k.capacity {
			if k.preempt == PreemptEvict {
				p.keep = i
				break
			}
			if err := flush(i); err != nil {
				return p, times, err
			}
			wStart, kvSum = i, 0
		}
		kvSum += need
	}
	if err := flush(p.keep); err != nil {
		return p, times, err
	}
	// Every request past the first wave was displaced by the ceiling:
	// evicted back to the queue, or blocked behind earlier waves.
	if p.waves > 0 {
		firstWave := times[0].batch
		p.preempts = len(batch) - firstWave
	}
	p.totalLat = off
	return p, times, nil
}
