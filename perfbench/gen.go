package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"seqpoint/internal/server"
	"seqpoint/internal/serving"
)

// The three workloads. Each stresses a different layer of the daemon,
// so a change to one layer shows on the workload that exercises it and
// leaves the one that bypasses it unchanged.
const (
	// Interactive: small what-if queries whose profiles are all in the
	// snapshot. Fixed per-request costs (corpus construction, autotune,
	// JSON, HTTP) dominate.
	wlInteractive = "interactive"
	// WhatifCold: every request prices train-phase profiles that are in
	// neither the snapshot nor any earlier request — the paper's
	// expensive step, the engine's miss path.
	wlWhatifCold = "whatif-cold"
	// Capacity: warm fleet, serve and plan queries whose time goes to the
	// serving event loop, summaries, trace generation and the planner's
	// search.
	wlCapacity = "capacity"
)

var workloads = []string{wlInteractive, wlWhatifCold, wlCapacity}

// modelNames are the four served networks; every workload cycles through
// them in turn so each seed carries the same per-model share of work.
var modelNames = []string{"ds2", "gnmt", "transformer", "seq2seq"}

// Warm key space. The snapshot holds every profile the interactive and
// capacity workloads can touch: train-phase profiles at batch 1..
// warmTrainBatch and eval-phase (serving) profiles at batch 1..
// warmServeBatch, on config #1, one GPU, over each model's warm SL
// universe. Requests draw only from it, so warm misses are zero by
// construction and the snapshot does not depend on the seed.
const (
	warmConfig     = "#1"
	warmTrainBatch = 4
	warmServeBatch = 16
	warmSLCount    = 24
)

// warmSLs is a model's warm sequence-length universe: 24 lengths inside
// the model's corpus range (LibriSpeech frames for ds2, IWSLT tokens for
// the NMT models).
func warmSLs(model string) []int {
	start, step := 4, 4
	if model == "ds2" {
		start, step = 50, 10
	}
	out := make([]int, warmSLCount)
	for i := range out {
		out[i] = start + i*step
	}
	return out
}

// coldSLs is how many distinct train profiles one whatif-cold task
// prices.
const coldSLs = 10

// coldSLRange bounds the sequence lengths whatif-cold tasks price.
func coldSLRange(model string) (lo, hi int) {
	if model == "ds2" {
		return 50, 210
	}
	return 8, 80
}

// serveCapRPS is a nominal one-replica serving capacity per model at max
// batch 4, 8 and 16, on config #1 at a mid-universe SL. It only places
// generated arrival rates relative to saturation; it is a constant so
// request lists do not depend on the program being measured.
var serveCapRPS = map[string]map[int]float64{
	"ds2":         {4: 126, 8: 220, 16: 356},
	"gnmt":        {4: 67, 8: 120, 16: 199},
	"transformer": {4: 96, 8: 165, 16: 261},
	"seq2seq":     {4: 144, 8: 251, 16: 395},
}

// fullBatchUS is one full batch-16 service time per model (µs), the
// unit plan latency budgets are written in.
var fullBatchUS = map[string]float64{
	"ds2": 45000, "gnmt": 80600, "transformer": 61400, "seq2seq": 40500,
}

// listRate is how many requests per measured second each workload's
// list carries, so a list sized for --seconds keeps a 2-core host busy
// for about that long. The work is fixed by (seed, seconds); a slower
// host takes longer, it does not do less.
var listRate = map[string]float64{
	wlInteractive: 190,
	wlWhatifCold:  10,
	wlCapacity:    110,
}

// minRequests keeps at least ten samples beyond the p90.
const minRequests = 100

// Request is one entry of a request list: an endpoint and the JSON body
// the daemon receives.
type Request struct {
	Path string
	Body []byte
}

// List is a generated, seeded request list.
type List struct {
	Requests []Request
	// Misses is the number of engine cache misses the list is designed
	// to cause on a daemon restored from the snapshot: zero for the warm
	// workloads, the count of distinct new train profiles for
	// whatif-cold.
	Misses int64
}

// Digest is the SHA-256 over the list's paths and bodies, in order.
func (l List) Digest() string {
	h := sha256.New()
	for _, r := range l.Requests {
		fmt.Fprintf(h, "%s\n%d\n", r.Path, len(r.Body))
		h.Write(r.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// listSize is the request count for a run of the given length, rounded
// up to whole blocks so every seed carries the same class counts.
func listSize(workload string, seconds int) int {
	n := max(minRequests, int(math.Ceil(float64(seconds)*listRate[workload])))
	b := blockSize[workload]
	return (n + b - 1) / b * b
}

// blockSize is one (model × class) block of each workload's list.
var blockSize = map[string]int{
	wlInteractive: len(modelNames) * 3,
	wlWhatifCold:  len(modelNames) * 3,
	wlCapacity:    len(modelNames) * 4,
}

// Generate builds the request list of a workload for a seed and run
// length. The same arguments always give the same bytes.
func Generate(workload string, seed int64, seconds int) (List, error) {
	return generateN(workload, seed, listSize(workload, seconds))
}

func generateN(workload string, seed int64, n int) (List, error) {
	g := &gen{
		rng:  rand.New(rand.NewSource(seed)),
		seen: make(map[string]bool),
		used: make(map[coldTuple]bool),
	}
	var l List
	emit := map[string]func(model string, class int){
		wlInteractive: g.interactive,
		wlWhatifCold:  g.whatifCold,
		wlCapacity:    g.capacity,
	}[workload]
	if emit == nil {
		return l, fmt.Errorf("unknown workload %q (want interactive, whatif-cold or capacity)", workload)
	}
	g.blocks(n, emit, blockSize[workload])
	if g.err != nil {
		return l, g.err
	}
	l.Requests, l.Misses = g.out, g.misses
	return l, nil
}

// gen accumulates one list. Requests are stratified: each block holds
// one request per (model, class) pair in a seeded order, so every seed
// carries the same mix and only the parameters inside each class vary.
type gen struct {
	rng    *rand.Rand
	out    []Request
	seen   map[string]bool
	used   map[coldTuple]bool
	misses int64
	err    error
	// counters cycle stratified parameters per class.
	counters map[string]int
}

// blocks emits n requests in blocks of size entries, one per (model,
// class) pair.
func (g *gen) blocks(n int, emit func(model string, class int), size int) {
	for len(g.out) < n && g.err == nil {
		for _, k := range g.rng.Perm(size) {
			if len(g.out) >= n || g.err != nil {
				return
			}
			emit(modelNames[k%len(modelNames)], k/len(modelNames))
		}
	}
}

// next returns and advances the stratification counter of a class.
func (g *gen) next(class string) int {
	if g.counters == nil {
		g.counters = make(map[string]int)
	}
	c := g.counters[class]
	g.counters[class] = c + 1
	return c
}

// add marshals a request body; bodies are unique within a list so the
// daemon never coalesces two of them.
func (g *gen) add(path string, body any) bool {
	b, err := json.Marshal(body)
	if err != nil {
		g.err = err
		return false
	}
	key := path + string(b)
	if g.seen[key] {
		return false
	}
	g.seen[key] = true
	g.out = append(g.out, Request{Path: path, Body: b})
	return true
}

func (g *gen) seed() int64 { return 1 + g.rng.Int63n(1<<30) }

// uniform draws from [lo, hi].
func (g *gen) uniform(lo, hi float64) float64 { return lo + g.rng.Float64()*(hi-lo) }

// pick draws n sequence lengths from a model's warm universe.
func (g *gen) pick(model string, n int) []int {
	u := warmSLs(model)
	out := make([]int, n)
	for i := range out {
		out[i] = u[g.rng.Intn(len(u))]
	}
	return out
}

// corpus draws n samples over k distinct warm sequence lengths: a small
// request-local corpus, so a simulation pays its fixed costs (corpus
// construction, autotune of a few shapes, JSON) rather than many
// profile lookups.
func (g *gen) corpus(model string, k, n int) []int {
	sls := g.pick(model, k)
	out := make([]int, n)
	for i := range out {
		out[i] = sls[g.rng.Intn(k)]
	}
	return out
}

// simulateReq is a fully specified /v1/simulate body: every field the
// daemon would default is written out, so the in-process replay sees
// exactly what the handler computes on.
func simulateReq(model, config string, batch, gpus int, seed int64, seqLens []int) server.SimulateRequest {
	return server.SimulateRequest{
		Model:   model,
		Batch:   batch,
		Epochs:  1,
		Seed:    seed,
		Config:  config,
		GPUs:    gpus,
		SeqLens: seqLens,
	}
}

var selectMethods = []string{"seqpoint", "frequent", "median", "worst"}

// interactive emits one small warm what-if query: class 0 simulates,
// 1 selects SeqPoints, 2 serves a short trace.
func (g *gen) interactive(model string, class int) {
	for {
		seed := g.seed()
		switch class {
		case 0, 1:
			batch := 1 + g.rng.Intn(warmTrainBatch)
			sim := simulateReq(model, warmConfig, batch, 1, seed, g.corpus(model, 1+g.rng.Intn(3), 16+g.rng.Intn(49)))
			if class == 0 {
				if g.add("/v1/simulate", sim) {
					return
				}
				continue
			}
			method := selectMethods[g.next("seqpoint-method")%len(selectMethods)]
			if g.add("/v1/seqpoint", server.SeqPointRequest{SimulateRequest: sim, Method: method}) {
				return
			}
		default:
			batch := []int{4, 8}[g.rng.Intn(2)]
			policy := []string{serving.PolicyDynamic, serving.PolicyFixed, serving.PolicyLength}[g.next("serve-policy")%3]
			ws := g.workloadSpec(model, batch, policy, 64+g.rng.Intn(193), g.uniform(0.5, 1.1)*serveCapRPS[model][batch], seed)
			if g.add("/v1/serve", server.ServeRequest{WorkloadSpec: ws}) {
				return
			}
		}
	}
}

// workloadSpec is a fully specified serving envelope over a request-local
// corpus of 8–24 warm sequence lengths.
func (g *gen) workloadSpec(model string, batch int, policy string, requests int, rate float64, seed int64) server.WorkloadSpec {
	timeout := float64(server.DefaultServeTimeoutUS)
	return server.WorkloadSpec{
		Model:     model,
		Rate:      roundRate(rate),
		Config:    warmConfig,
		Batch:     batch,
		Policy:    policy,
		TimeoutUS: &timeout,
		Requests:  requests,
		Seed:      seed,
		SeqLens:   g.pick(model, 8+g.rng.Intn(17)),
	}
}

// roundRate keeps generated rates short on the wire.
func roundRate(r float64) float64 { return math.Round(r*100) / 100 }

// coldTuple identifies the profile family one whatif-cold task prices;
// no two tasks of a list share one, so no task hits another's profiles.
type coldTuple struct {
	model, config string
	gpus, batch   int
}

// coldTask is one whatif-cold simulation: a fresh (model, config, GPUs,
// batch) family over coldSLs distinct sequence lengths, each repeated
// batch times so every padded SL is one of them. Batches of 16 and more
// are never in the snapshot (it holds train profiles up to batch 4), so
// each task causes exactly coldSLs misses. GPUs, config and a batch
// stratum cycle per model, so every seed prices the same mix of
// families.
func (g *gen) coldTask(model string) server.SimulateRequest {
	c := g.next("cold-" + model)
	t := coldTuple{model: model, config: fmt.Sprintf("#%d", 1+(c/4)%5), gpus: []int{1, 2, 4, 8}[c%4]}
	for {
		t.batch = 16 + (c/20%8)*14 + g.rng.Intn(14)
		if !g.used[t] {
			g.used[t] = true
			break
		}
	}
	lo, hi := coldSLRange(model)
	width := float64(hi-lo) / coldSLs
	seqLens := make([]int, 0, coldSLs*t.batch)
	for i := 0; i < coldSLs; i++ {
		// One SL per stratum keeps every task's pricing cost alike.
		sl := lo + int(float64(i)*width) + g.rng.Intn(max(1, int(width)))
		for j := 0; j < t.batch; j++ {
			seqLens = append(seqLens, sl)
		}
	}
	g.rng.Shuffle(len(seqLens), func(i, j int) { seqLens[i], seqLens[j] = seqLens[j], seqLens[i] })
	g.misses += coldSLs
	return simulateReq(model, t.config, t.batch, t.gpus, g.seed(), seqLens)
}

// whatifCold emits one cold query: class 0 simulates, 1 selects
// SeqPoints, 2 sweeps a 2–5 task grid across the four models.
func (g *gen) whatifCold(model string, class int) {
	switch class {
	case 0:
		g.add("/v1/simulate", g.coldTask(model))
	case 1:
		method := selectMethods[g.next("seqpoint-method")%len(selectMethods)]
		g.add("/v1/seqpoint", server.SeqPointRequest{SimulateRequest: g.coldTask(model), Method: method})
	default:
		n := 2 + g.next("sweep-size")%4
		tasks := make([]server.SimulateRequest, n)
		for i := range tasks {
			tasks[i] = g.coldTask(modelNames[(g.next("sweep-model"))%len(modelNames)])
		}
		g.add("/v1/sweep", server.SweepRequest{Tasks: tasks})
	}
}

// capacity emits one warm capacity query: classes 0 and 1 simulate a
// fleet, 2 serves a long trace on one replica, 3 plans a fleet.
func (g *gen) capacity(model string, class int) {
	for {
		seed := g.seed()
		batch := []int{8, 16}[g.rng.Intn(2)]
		switch class {
		case 0, 1:
			if g.add("/v1/fleet", g.fleetReq(model, batch, seed)) {
				return
			}
		case 2:
			policy := []string{serving.PolicyDynamic, serving.PolicyFixed, serving.PolicyLength}[g.next("long-serve-policy")%3]
			ws := g.workloadSpec(model, batch, policy, 2000+g.rng.Intn(6001), g.uniform(0.5, 0.95)*serveCapRPS[model][batch], seed)
			if g.add("/v1/serve", server.ServeRequest{WorkloadSpec: ws}) {
				return
			}
		default:
			if g.add("/v1/plan", g.planReq(model, batch, seed)) {
				return
			}
		}
	}
}

var fleetRoutings = []string{serving.RoutingRoundRobin, serving.RoutingLeastOutstanding, serving.RoutingJSQ, serving.RoutingPowerOfTwo}

// fleetReq is a 2–32 replica fleet over 2k–8k requests. Every fourth
// fleet carries the KV-cache model with kv routing; the arrival shape
// cycles through Poisson, diurnal and a two-cohort tenanted mix.
func (g *gen) fleetReq(model string, batch int, seed int64) server.FleetRequest {
	c := g.next("fleet")
	replicas := []int{2, 4, 8, 16, 32}[c%5]
	requests := 2000 + g.rng.Intn(6001)
	rate := g.uniform(0.6, 0.95) * float64(replicas) * serveCapRPS[model][batch]
	ws := g.workloadSpec(model, batch, serving.PolicyDynamic, requests, rate, seed)
	req := server.FleetRequest{Replicas: replicas, Routing: fleetRoutings[(c/5)%len(fleetRoutings)]}
	if c%4 == 3 {
		gb := math.Round(g.uniform(0.1, 0.3)*100) / 100
		ws.KVCapacityGB = &gb
		ws.DecodeSteps = 8 + g.rng.Intn(25)
		ws.KVPreempt = []string{serving.PreemptEvict, serving.PreemptBlock}[g.rng.Intn(2)]
		req.Routing = serving.RoutingKV
	}
	switch (c / 4) % 3 {
	case 1:
		amp := 0.5
		period := float64(ws.Requests) / ws.Rate * 1e6 / 2
		ws.Pattern, ws.PatternAmplitude, ws.PatternPeriodUS = serving.PatternDiurnal, &amp, &period
	case 2:
		ws.Policy = serving.PolicyWFQ
		ws.Tenants = []server.TenantSpec{
			{Class: "chat", Count: 4, Weight: 3, ZipfS: 1.1},
			{Class: "bulk", Count: 2, Weight: 1, Burst: 4},
		}
	}
	req.WorkloadSpec = ws
	return req
}

// planReq asks for the minimal fleet meeting a p99 budget of four
// full-batch service times at 2–5× one replica's capacity, searching two
// routings up to 16 replicas; every such plan is feasible.
func (g *gen) planReq(model string, batch int, seed int64) server.PlanRequest {
	c := g.next("plan")
	rate := g.uniform(2, 5) * serveCapRPS[model][batch]
	ws := g.workloadSpec(model, batch, serving.PolicyDynamic, 1000+g.rng.Intn(1001), rate, seed)
	drop := 1.0
	return server.PlanRequest{
		WorkloadSpec: ws,
		SLO:          server.PlanSLO{LatencyP99US: 4 * fullBatchUS[model], MaxDropRatePct: &drop},
		MaxReplicas:  16,
		Routings:     []string{fleetRoutings[c%4], fleetRoutings[(c+1+c/4%3)%4]},
	}
}

// coverList primes a cold daemon with every profile of the warm key
// space: one simulation per (model, train batch) whose corpus repeats
// each warm SL batch times (so every SL is a padded batch length), and
// one fixed-batch serve per (model, serve batch) whose trace draws every
// warm SL plus the decode SL 1 (priced at that batch by the prefetch).
// Partial batches fill on demand along the way.
func coverList() (List, error) {
	var l List
	g := &gen{rng: rand.New(rand.NewSource(1)), seen: make(map[string]bool)}
	for _, m := range modelNames {
		u := warmSLs(m)
		for b := 1; b <= warmTrainBatch; b++ {
			var seqLens []int
			for _, sl := range u {
				for j := 0; j < b; j++ {
					seqLens = append(seqLens, sl)
				}
			}
			g.add("/v1/simulate", simulateReq(m, warmConfig, b, 1, 1, seqLens))
		}
		pool := append([]int{1}, u...)
		for b := 1; b <= warmServeBatch; b++ {
			timeout := float64(server.DefaultServeTimeoutUS)
			g.add("/v1/serve", server.ServeRequest{WorkloadSpec: server.WorkloadSpec{
				Model: m, Rate: serveCapRPS[m][16], Config: warmConfig, Batch: b,
				Policy: serving.PolicyFixed, TimeoutUS: &timeout, Requests: 2000, Seed: 1, SeqLens: pool,
			}})
		}
	}
	l.Requests = g.out
	return l, g.err
}
