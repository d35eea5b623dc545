package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
	"seqpoint/internal/trainer"
)

// Span is one timed call into a layer during the traced replay. Spans
// of one request share Req; Parent is 0 on the request's root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the start of the replay.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Items counts the work the call did where it has a natural unit:
	// requests for traces, simulations and probes, iterations for
	// training runs.
	Items int64 `json:"items,omitempty"`
}

// spanLayer maps every span name the replay records to its layer. The
// root span "request" has no layer: its self time (the replay's glue
// outside every layer call) is reported as "other".
var spanLayer = map[string]string{
	"server.decode":                    "server",
	"server.encode":                    "server",
	"experiments.ServedWorkloadByName": "dataset",
	"dataset.Synthetic":                "dataset",
	"engine.TrainProfiles":             "engine",
	"engine.EvalProfiles":              "engine",
	"engine.Simulate":                  "trainer",
	"engine.Sweep":                     "trainer",
	"trainer.Summary":                  "trainer",
	"trainer.EpochSummary":             "trainer",
	"core.Select":                      "core",
	"core.Frequent":                    "core",
	"core.Median":                      "core",
	"core.Worst":                       "core",
	"serving.PoissonTrace":             "workload",
	"workload.Generate":                "workload",
	"workload.Validate":                "workload",
	"serving.Simulate":                 "serving",
	"serving.SimulateFleet":            "serving",
	"serving.Summary":                  "serving",
	"experiments.PlanProbe":            "planner",
	"planner.Solve":                    "planner",
	"planner.probe":                    "planner",
}

// recorder collects one request's spans. The request goroutine opens
// and closes nested spans; profile-source calls, which sweep workers
// make concurrently, are recorded as leaves under whatever span is
// open, so the stack needs the lock only for those. A nil recorder
// records nothing, which is how the untraced replay runs.
type recorder struct {
	req   int
	t0    time.Time
	ids   *atomic.Int64
	mu    sync.Mutex
	stack []int
	spans []Span
}

func newRecorder(req int, t0 time.Time, ids *atomic.Int64) *recorder {
	return &recorder{req: req, t0: t0, ids: ids}
}

// begin opens a span under the innermost open one and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: r.ids.Add(1), Parent: r.parentLocked(), Req: r.req, Name: name, StartNS: now})
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span begin returned, recording its work count.
func (r *recorder) end(h int, items int64) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[h].EndNS = now
	r.spans[h].Items = items
	r.stack = r.stack[:len(r.stack)-1]
}

// leaf records a completed call that opened no spans of its own.
func (r *recorder) leaf(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: r.ids.Add(1), Parent: r.parentLocked(), Req: r.req, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(),
	})
}

func (r *recorder) parentLocked() int64 {
	if len(r.stack) == 0 {
		return 0
	}
	return r.spans[r.stack[len(r.stack)-1]].ID
}

// timedSource is the trace's view of the engine: a trainer.ProfileSource
// that times every profile lookup the trainer, the serving simulators
// and the planner's probes make, then delegates to the engine.
type timedSource struct {
	src trainer.ProfileSource
	rec *recorder
}

func (t timedSource) TrainProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	start := time.Now()
	out, err := t.src.TrainProfiles(hw, cl, m, batch, seqLens)
	t.rec.leaf("engine.TrainProfiles", start, time.Now())
	return out, err
}

func (t timedSource) EvalProfiles(hw gpusim.Config, cl gpusim.ClusterConfig, m models.Model, batch int, seqLens []int) (map[int]profiler.IterationProfile, error) {
	start := time.Now()
	out, err := t.src.EvalProfiles(hw, cl, m, batch, seqLens)
	t.rec.leaf("engine.EvalProfiles", start, time.Now())
	return out, err
}

// spanSelf returns every span's self time: its duration minus the part
// of it that the union of its children's intervals covers.
func spanSelf(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = lo, hi, true
			case lo > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
			case hi > curEnd:
				curEnd = hi
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// writeSpans writes every span to path as one JSON document.
func writeSpans(path string, workload string, seed int64, spans []Span) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		// Layers maps span names to layers; "request" spans are roots.
		Layers map[string]string `json:"layers"`
		Spans  []Span            `json:"spans"`
	}{workload, seed, spanLayer, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}
