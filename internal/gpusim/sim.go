package gpusim

import "seqpoint/internal/tensor"

// Invocation is one priced kernel execution: what ran, for how long, and
// what the performance counters read. It is the unit of an iteration
// trace and of the profiler's per-kernel breakdown, standing in for one
// row of a Radeon Compute Profiler trace.
type Invocation struct {
	// Kernel is the concrete kernel symbol (see KernelName).
	Kernel string
	// Signature is the op's shape signature (autotune/dispatch key).
	Signature string
	// Label is the layer-level role the op was emitted with (e.g.
	// "classifier", "lstm_input"); empty for unlabeled ops.
	Label string
	// Kind is the op class.
	Kind tensor.Kind
	// TimeUS is the modeled execution time in microseconds, including
	// launch overhead.
	TimeUS float64
	// Counters are the modeled hardware counters.
	Counters Counters
}

// Simulator prices ops under a fixed hardware configuration. It is
// stateless beyond the config and safe for concurrent use.
type Simulator struct {
	cfg Config
}

// New validates cfg and returns a simulator for it.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// Bandwidth efficiency constants: streaming kernels achieve a high
// fraction of peak DRAM bandwidth, random gathers much less.
const (
	streamBWEff = 0.78
	gatherBWEff = 0.30
	// noL2BWPenalty scales achievable bandwidth when L2 is disabled:
	// without L2 the memory system loses request coalescing and
	// write-combining, so even pure streaming slows down.
	noL2BWPenalty = 0.70
	// noL1ComputePenalty scales arithmetic efficiency of blocked
	// kernels (GEMM/conv) when L1 is disabled: tile fragments that the
	// vector L1 would serve per-CU must round-trip to L2, starving the
	// FMA pipeline.
	noL1ComputePenalty = 0.70
	// maxReuseHit bounds how much repeat traffic caches can absorb.
	maxReuseHit = 0.95
	// l1Effectiveness discounts aggregate L1 capacity: private per-CU
	// caches cannot hold a shared working set as well as the unified L2.
	l1Effectiveness = 0.6
)

// reuseHit is the fraction of *repeat* touches to a working set of ws
// bytes that the cache hierarchy serves on-chip.
func (s *Simulator) reuseHit(ws float64) float64 {
	if ws <= 0 {
		return 0
	}
	covered := l1Effectiveness*s.cfg.AggregateL1Bytes() + s.cfg.L2Bytes()
	return maxReuseHit * minF(1, covered/ws)
}

// effectiveBWGBps is the DRAM bandwidth a kernel can actually draw.
// Few active CUs cannot keep enough requests in flight to saturate HBM,
// so bandwidth scales down below 32 CUs — this is why config #3 (16 CUs)
// slows memory-bound work too, not just compute. Disabling L2 (config
// #5) costs request coalescing, slowing even streaming traffic.
func (s *Simulator) effectiveBWGBps(eff float64) float64 {
	cuScale := minF(1, float64(s.cfg.NumCUs)/32)
	if s.cfg.L2MB == 0 {
		eff *= noL2BWPenalty
	}
	return s.cfg.HBMGBps * eff * cuScale
}

// blockedEff applies the no-L1 penalty to blocked-kernel efficiency.
func (s *Simulator) blockedEff(eff float64) float64 {
	if s.cfg.L1KBPerCU == 0 {
		return eff * noL1ComputePenalty
	}
	return eff
}

// OpCost is what the model charges one launch of an op: its class,
// modeled time and counters. It carries no names, so a caller that
// only totals an iteration builds no strings.
type OpCost struct {
	// Kind is the op class.
	Kind tensor.Kind
	// TimeUS is the modeled execution time in microseconds, including
	// launch overhead.
	TimeUS float64
	// Counters are the modeled hardware counters.
	Counters Counters
}

// roofline is the cost model proper: an op's compute leg, the DRAM
// traffic it moves and the memory leg that traffic takes. Cost and
// Explain both read it, so the arithmetic exists once.
type roofline struct {
	computeUS, memUS      float64
	readBytes, writeBytes float64
}

func (s *Simulator) roofline(op tensor.Op) roofline {
	r := roofline{writeBytes: op.BytesWritten()}
	bwEff := streamBWEff

	switch o := op.(type) {
	case tensor.GEMM:
		r.computeUS = flopsToUS(o.FLOPs(), s.cfg.PeakGFLOPs()*s.blockedEff(gemmEfficiency(o, s.cfg)))
		r.readBytes = s.gemmReadTraffic(o)
	case tensor.Conv2D:
		r.computeUS = flopsToUS(o.FLOPs(), s.cfg.PeakGFLOPs()*s.blockedEff(convEfficiency(o, s.cfg)))
		r.readBytes = s.convReadTraffic(o)
	case tensor.Elementwise:
		// Transcendental-heavy pointwise kernels (sigmoid/tanh) run the
		// VALU at a modest fraction of FMA peak.
		r.computeUS = flopsToUS(op.FLOPs(), s.cfg.PeakGFLOPs()*0.25)
		r.readBytes = op.BytesRead()
	case tensor.Reduction:
		r.computeUS = flopsToUS(op.FLOPs(), s.cfg.PeakGFLOPs()*0.15)
		r.readBytes = op.BytesRead()
	case tensor.Embedding:
		r.computeUS = flopsToUS(op.FLOPs(), s.cfg.PeakGFLOPs()*0.10)
		// Gathers hit the table randomly; cache coverage of the table
		// decides how much reaches DRAM.
		hit := s.reuseHit(o.WorkingSet())
		r.readBytes = op.BytesRead() * (1 - hit)
		bwEff = gatherBWEff
	default:
		r.computeUS = flopsToUS(op.FLOPs(), s.cfg.PeakGFLOPs()*0.25)
		r.readBytes = op.BytesRead()
	}

	r.memUS = bytesToUS(r.readBytes+r.writeBytes, s.effectiveBWGBps(bwEff))
	return r
}

// Cost models one launch of op: its class, time and counters, without
// naming anything. The profiler totals the iteration profiles the
// engine caches from it, so a cache miss builds no kernel names.
func (s *Simulator) Cost(op tensor.Op) OpCost {
	r := s.roofline(op)

	// Counters: stalls accrue when the write path cannot hide behind
	// compute; proportional to the write share of memory time.
	var stallCycles float64
	if traffic := r.readBytes + r.writeBytes; r.memUS > r.computeUS && traffic > 0 {
		stallCycles = (r.memUS - r.computeUS) * (r.writeBytes / traffic) * s.cfg.ClockGHz * 1e3
	}

	return OpCost{
		Kind:   op.Kind(),
		TimeUS: s.cfg.LaunchOverheadUS + maxF(r.computeUS, r.memUS),
		Counters: Counters{
			VALUInsts:           op.FLOPs() / vegaSIMDLanes,
			LoadBytes:           r.readBytes,
			StoreBytes:          r.writeBytes,
			MemWriteStallCycles: stallCycles,
		},
	}
}

// Price is Cost plus the names a trace row carries: the dispatched
// kernel symbol, the op's shape signature and its layer label. Traces,
// Explain and the profiler's per-kernel breakdown read it.
func (s *Simulator) Price(op tensor.Op) Invocation {
	c := s.Cost(op)
	return Invocation{
		Kernel:    KernelName(op),
		Signature: op.Signature(),
		Label:     opLabel(op),
		Kind:      c.Kind,
		TimeUS:    c.TimeUS,
		Counters:  c.Counters,
	}
}

// gemmReadTraffic models DRAM read bytes for a blocked GEMM: each
// operand is read cold once; tiling re-reads A once per column-tile pass
// and B once per row-tile pass, with repeats filtered by the caches.
func (s *Simulator) gemmReadTraffic(o tensor.GEMM) float64 {
	t := selectGEMMTile(o.M, o.N)
	aBytes := float64(o.M) * float64(o.K) * tensor.ElemSize
	bBytes := float64(o.K) * float64(o.N) * tensor.ElemSize
	cBytes := float64(o.M) * float64(o.N) * tensor.ElemSize

	passesA := float64(ceilDiv(o.N, t.tn))
	passesB := float64(ceilDiv(o.M, t.tm))

	traffic := aBytes + bBytes + cBytes
	traffic += (passesA - 1) * aBytes * (1 - s.reuseHit(aBytes))
	traffic += (passesB - 1) * bBytes * (1 - s.reuseHit(bBytes))
	return traffic
}

// convReadTraffic models DRAM read bytes for a convolution: the input is
// revisited once per overlapping filter tap (minus stride skips), with
// repeats filtered by cache coverage of the sliding band; the filter is
// tiny and reused from cache after the cold read.
func (s *Simulator) convReadTraffic(o tensor.Conv2D) float64 {
	inBytes := float64(o.N) * float64(o.C) * float64(o.H) * float64(o.W) * tensor.ElemSize
	filtBytes := float64(o.OutC) * float64(o.C) * float64(o.KH) * float64(o.KW) * tensor.ElemSize

	repeat := float64(o.KH*o.KW)/float64(o.SH*o.SW) - 1
	if repeat < 0 {
		repeat = 0
	}
	band := float64(o.C) * float64(o.KH) * float64(o.W) * tensor.ElemSize * float64(o.N)
	return inBytes + filtBytes + repeat*inBytes*(1-s.reuseHit(band))
}

func flopsToUS(flops, gflopsPerS float64) float64 {
	if flops == 0 {
		return 0
	}
	return flops / (gflopsPerS * 1e9) * usPerSecond
}

func bytesToUS(bytes, gbPerS float64) float64 {
	if bytes == 0 {
		return 0
	}
	return bytes / (gbPerS * 1e9) * usPerSecond
}

func opLabel(op tensor.Op) string {
	switch o := op.(type) {
	case tensor.GEMM:
		return o.Label
	case tensor.Conv2D:
		return o.Label
	case tensor.Elementwise:
		return o.Label
	case tensor.Reduction:
		return o.Label
	case tensor.Embedding:
		return o.Label
	default:
		return ""
	}
}
