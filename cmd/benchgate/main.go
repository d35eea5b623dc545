// Command benchgate compares a freshly-measured benchmark document
// (cmd/benchjson output) against a committed baseline and fails when
// any shared benchmark's ns/op or allocs/op regressed beyond its
// threshold. CI runs it after the bench step, so a hot-path regression
// fails the PR that introduced it instead of silently eroding the perf
// trajectory. ns/op and allocs/op get separate thresholds: wall time
// is noisy under CI load, but allocation counts are near-deterministic
// for these event loops, so the alloc gate can be much tighter.
//
// Benchmarks present only in the current run are reported and skipped:
// a new benchmark has no baseline to regress against, and gating on it
// would force every benchmark PR to land in two commits. Benchmarks
// present only in the baseline fail the gate — a vanished benchmark
// usually means a deleted or broken bench, which is exactly the kind
// of silent trajectory gap the gate exists to catch.
//
// Usage:
//
//	benchgate -baseline BENCH_pr7.json -current BENCH_ci.json -threshold-pct 25 -alloc-threshold-pct 10
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"seqpoint/internal/benchdoc"
)

// delta is one benchmark metric's baseline-to-current comparison.
type delta struct {
	key      string
	metric   string // "ns/op" or "allocs/op"
	baseline float64
	current  float64
	limit    float64 // max allowed regression in percent
}

// pct is the signed percentage change from baseline to current.
func (d delta) pct() float64 {
	return (d.current - d.baseline) / d.baseline * 100
}

func main() {
	var (
		basePath   = flag.String("baseline", "", "committed benchmark baseline JSON (required)")
		currPath   = flag.String("current", "", "freshly measured benchmark JSON (required)")
		threshold  = flag.Float64("threshold-pct", 25, "maximum allowed ns/op regression in percent")
		allocLimit = flag.Float64("alloc-threshold-pct", 10, "maximum allowed allocs/op regression in percent")
	)
	flag.Parse()
	if *basePath == "" || *currPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are both required")
		os.Exit(2)
	}
	report, ok, err := Gate(*basePath, *currPath, *threshold, *allocLimit)
	fmt.Print(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// Gate loads both documents and evaluates the regression thresholds,
// returning a human-readable report and whether the gate passed.
func Gate(basePath, currPath string, thresholdPct, allocThresholdPct float64) (string, bool, error) {
	base, err := benchdoc.Load(basePath)
	if err != nil {
		return "", false, err
	}
	curr, err := benchdoc.Load(currPath)
	if err != nil {
		return "", false, err
	}
	return Compare(base, curr, thresholdPct, allocThresholdPct)
}

// Compare evaluates current against baseline. The gate fails when a
// shared benchmark's ns/op or allocs/op regressed past its threshold
// or a baseline benchmark vanished; new benchmarks are listed and
// skipped. allocs/op is compared only for benchmarks where both runs
// report it — a baseline without b.ReportAllocs data can't gate.
func Compare(base, curr benchdoc.Document, thresholdPct, allocThresholdPct float64) (string, bool, error) {
	baseNs := index(base, "ns/op")
	currNs := index(curr, "ns/op")
	baseAllocs := index(base, "allocs/op")
	currAllocs := index(curr, "allocs/op")

	var deltas []delta
	var newOnes, vanished []string
	for key, ns := range currNs {
		b, ok := baseNs[key]
		if !ok {
			newOnes = append(newOnes, key)
			continue
		}
		deltas = append(deltas, delta{key: key, metric: "ns/op", baseline: b, current: ns, limit: thresholdPct})
		if ba, ok := baseAllocs[key]; ok {
			if ca, ok := currAllocs[key]; ok {
				deltas = append(deltas, delta{key: key, metric: "allocs/op", baseline: ba, current: ca, limit: allocThresholdPct})
			}
		}
	}
	for key := range baseNs {
		if _, ok := currNs[key]; !ok {
			vanished = append(vanished, key)
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].key != deltas[j].key {
			return deltas[i].key < deltas[j].key
		}
		return deltas[i].metric > deltas[j].metric // ns/op before allocs/op
	})
	sort.Strings(newOnes)
	sort.Strings(vanished)

	var out []byte
	ok := true
	compared := 0
	for _, d := range deltas {
		if d.metric == "ns/op" {
			compared++
		}
		verdict := "ok"
		if d.pct() > d.limit {
			verdict = fmt.Sprintf("REGRESSED past %.0f%%", d.limit)
			ok = false
		}
		out = fmt.Appendf(out, "%s: %.0f -> %.0f %s (%+.1f%%) %s\n",
			d.key, d.baseline, d.current, d.metric, d.pct(), verdict)
	}
	for _, key := range newOnes {
		out = fmt.Appendf(out, "%s: new benchmark, no baseline — skipped\n", key)
	}
	for _, key := range vanished {
		out = fmt.Appendf(out, "%s: present in baseline but missing from current run\n", key)
		ok = false
	}
	if len(deltas)+len(newOnes)+len(vanished) == 0 {
		return "", false, fmt.Errorf("no benchmarks in either document")
	}
	if ok {
		out = fmt.Appendf(out, "benchgate: pass (%d compared, %d new)\n", compared, len(newOnes))
	} else {
		out = fmt.Appendf(out, "benchgate: FAIL\n")
	}
	return string(out), ok, nil
}

// index keys every result carrying the named metric by
// package/name-procs. For ns/op, the top-level ns_per_op field is
// preferred over the metrics map when present.
func index(doc benchdoc.Document, metric string) map[string]float64 {
	m := make(map[string]float64, len(doc.Results))
	for _, r := range doc.Results {
		v := r.Metrics[metric]
		if metric == "ns/op" && r.NsPerOp != 0 {
			v = r.NsPerOp
		}
		if v <= 0 {
			continue
		}
		m[fmt.Sprintf("%s/%s-%d", r.Package, r.Name, r.Procs)] = v
	}
	return m
}
