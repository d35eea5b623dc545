// Command perfbench is seqpoint's end-to-end benchmark. One run
// restarts seqpointd from a profile-cache snapshot, replays a seeded
// request list through it closed-loop over at most nproc keep-alive
// connections, checks every response, and prints the end-to-end metrics.
// With -trace 1 it also replays the same list in-process through the
// layers' public functions, with spans, and prints the per-layer
// metrics instead. See README.md in this directory.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench --workload interactive --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"seqpoint/internal/engine"
	"seqpoint/internal/server"
)

// A run restarts the daemon from the snapshot setupsBefore times ahead
// of the measured phase and setupsAfter times behind it; setup_s is the
// median of all of them. Spreading the restarts over the run keeps a
// passing slowdown of the host from deciding the median.
const setupsBefore, setupsAfter = 2, 3

// perfbench runs from the checkout root, where run.sh builds both
// binaries under workDir.
const (
	workDir   = ".bench_build/perfbench"
	daemonBin = workDir + "/bin/seqpointd"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: interactive, whatif-cold or capacity")
	flag.Int64Var(&o.seed, "seed", 1, "request-list seed")
	flag.IntVar(&o.seconds, "seconds", 20, "run length the request list is sized for")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be positive, got %d", o.seconds))
	}
	// A signal cancels ctx, which kills any running daemon; the run then
	// fails on its next request.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report accumulates metrics in print order alongside the sample count
// each one rests on.
type report struct {
	names   []string
	metrics map[string]Metric
	samples map[string]string
}

func (r *report) add(name string, value float64, unit, samples string) {
	if r.metrics == nil {
		r.metrics, r.samples = make(map[string]Metric), make(map[string]string)
	}
	r.names = append(r.names, name)
	r.metrics[name] = Metric{Value: value, Unit: unit}
	r.samples[name] = samples
}

func (r *report) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-28s %14.4f %-6s %s\n", n, m.Value, m.Unit, r.samples[n])
	}
}

// httpPhase is the measured closed-loop run against the daemon.
type httpPhase struct {
	items      []httpItem
	wall       time.Duration
	cpu        time.Duration
	peakRSS    int64
	before     server.StatsResponse
	after      server.StatsResponse
	setups     []time.Duration
	digest     string
	failed     int
	firstError string
}

func run(ctx context.Context, o options) (Result, error) {
	conns := runtime.NumCPU()
	host := hostRecord(".", o.seed, conns)
	refs := []float64{spinRef()}

	list, err := Generate(o.workload, o.seed, o.seconds)
	if err != nil {
		return Result{}, err
	}
	for _, d := range []string{"snapshots", "digests", "results", "spans", "run"} {
		if err := os.MkdirAll(filepath.Join(workDir, d), 0o755); err != nil {
			return Result{}, err
		}
	}
	binHash, err := fileSHA256(daemonBin)
	if err != nil {
		return Result{}, fmt.Errorf("hashing seqpointd: %w", err)
	}
	snap, err := ensureSnapshot(ctx, binHash, conns)
	if err != nil {
		return Result{}, err
	}

	before, after := setupsBefore, setupsAfter
	if o.trace {
		before, after = 1, 0
	}
	hp, err := measureHTTP(ctx, snap.Path, list, conns, before, after)
	if err != nil {
		return Result{}, err
	}
	refs = append(refs, spinRef())
	host.RefMS = median(refs)

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v requests=%d conns=%d list_sha256=%s\n",
		o.workload, o.seed, o.seconds, o.trace, len(list.Requests), conns, list.Digest()[:16])
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("snapshot entries=%d size_mb=%.1f primed_in_s=%.1f (built once per seqpointd binary)\n",
		snap.Entries, float64(snap.Bytes)/1e6, snap.PrimeS)

	// Correctness gate.
	var problems []string
	if hp.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d requests failed; first: %s", hp.failed, len(list.Requests), hp.firstError))
	}
	misses := hp.after.Engine.Misses - hp.before.Engine.Misses
	if misses != list.Misses {
		problems = append(problems, fmt.Sprintf("engine.misses = %d in the measured phase, designed %d", misses, list.Misses))
	}
	digestKey := shortHash(binHash + list.Digest())
	if prev, err := os.ReadFile(filepath.Join(workDir, "digests", digestKey)); err == nil {
		if string(prev) != hp.digest {
			problems = append(problems, fmt.Sprintf("response digest %s differs from an earlier run of this seed (%s)", hp.digest[:16], string(prev)[:16]))
		}
	} else if hp.failed == 0 {
		if err := os.WriteFile(filepath.Join(workDir, "digests", digestKey), []byte(hp.digest), 0o644); err != nil {
			return Result{}, err
		}
	}

	e2e := endToEnd(hp, len(list.Requests))
	fmt.Println("end-to-end (closed loop over HTTP):")
	e2e.print()

	// error_pct is printed above but not tracked: it reads 0 on every
	// correct run, and failures already fail the run.
	res := Result{Attempted: len(list.Requests), Failed: hp.failed, Metrics: make(map[string]Metric)}
	for k, m := range e2e.metrics {
		if k != "error_pct" {
			res.Metrics[k] = m
		}
	}
	var layers report
	if o.trace {
		var layerProblems []string
		layers, layerProblems, err = traced(o, snap, list, conns, hp, host)
		if err != nil {
			return Result{}, err
		}
		problems = append(problems, layerProblems...)
		fmt.Println("per-layer (in-process replay):")
		layers.print()
		res.Metrics = layers.metrics
	}

	res.Correct = len(problems) == 0
	fmt.Printf("correct=%v response_sha256=%s misses=%d/%d failed=%d/%d\n",
		res.Correct, hp.digest[:16], misses, list.Misses, hp.failed, len(list.Requests))
	for _, p := range problems {
		fmt.Println("  FAIL:", p)
	}
	rec := struct {
		Workload string            `json:"workload"`
		Seconds  int               `json:"seconds"`
		Trace    bool              `json:"trace"`
		Host     Host              `json:"host"`
		Snapshot snapshotInfo      `json:"snapshot"`
		Digest   string            `json:"response_sha256"`
		ListSHA  string            `json:"list_sha256"`
		Problems []string          `json:"problems"`
		EndToEnd map[string]Metric `json:"end_to_end"`
		Samples  map[string]string `json:"end_to_end_samples"`
		PerLayer map[string]Metric `json:"per_layer,omitempty"`
	}{o.workload, o.seconds, o.trace, host, snap, hp.digest, list.Digest(), problems, e2e.metrics, e2e.samples, layers.metrics}
	b, _ := json.MarshalIndent(rec, "", "  ")
	kind := "e2e"
	if o.trace {
		kind = "layers"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, kind)
	if err := os.WriteFile(filepath.Join(workDir, "results", name), b, 0o644); err != nil {
		return Result{}, err
	}
	return res, nil
}

// measureHTTP times restarts of the daemon from a fresh copy of the
// snapshot — before restarts ahead of the measured phase, the last of
// which serves it, and after restarts behind it — and drives the list
// through the served one.
func measureHTTP(ctx context.Context, snapPath string, list List, conns, before, after int) (httpPhase, error) {
	var hp httpPhase
	cache := filepath.Join(workDir, "run", "cache.json")
	defer os.Remove(cache)
	restart := func() (*daemon, error) {
		// The daemon rewrites its cache file on shutdown, so every start
		// gets an unmodified copy: no run warms the next.
		if err := copyFile(snapPath, cache); err != nil {
			return nil, err
		}
		d, err := startDaemon(ctx, daemonBin, cache, runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		hp.setups = append(hp.setups, d.setup)
		return d, nil
	}
	var d *daemon
	for k := 0; k < before; k++ {
		if d != nil {
			d.kill()
		}
		var err error
		if d, err = restart(); err != nil {
			return hp, err
		}
	}
	pid := d.cmd.Process.Pid
	var err error
	if hp.before, err = d.stats(); err != nil {
		d.kill()
		return hp, err
	}
	cpu0, err := cpuTime(pid)
	if err != nil {
		d.kill()
		return hp, err
	}
	hp.items, hp.wall = drive(d.base, list, conns)
	cpu1, err1 := cpuTime(pid)
	stats1, err2 := d.stats()
	rss, err3 := peakRSS(pid)
	if err := errors.Join(err1, err2, err3); err != nil {
		d.kill()
		return hp, err
	}
	hp.cpu, hp.after, hp.peakRSS = cpu1-cpu0, stats1, rss
	// Nothing the daemon would save on shutdown is wanted: its cache
	// file is a throwaway copy.
	d.kill()
	for k := 0; k < after; k++ {
		if d, err = restart(); err != nil {
			return hp, err
		}
		d.kill()
	}
	checkAll(list, hp.items)
	for _, it := range hp.items {
		if !it.ok() {
			hp.failed++
			if hp.firstError == "" {
				hp.firstError = fmt.Sprintf("status %d: %v %s", it.status, it.err, truncate(it.body, 200))
			}
		}
	}
	hp.digest = bodyDigest(func(i int) []byte { return hp.items[i].body }, len(hp.items))
	return hp, nil
}

// endToEnd computes the user-visible metrics of the HTTP phase.
func endToEnd(hp httpPhase, n int) report {
	var r report
	lat := make([]float64, 0, n)
	for _, it := range hp.items {
		lat = append(lat, float64(it.latency.Nanoseconds())/1e6)
	}
	ok := n - hp.failed
	reqs := fmt.Sprintf("(%d requests)", n)
	r.add("throughput_rps", float64(ok)/hp.wall.Seconds(), "1/s", fmt.Sprintf("(%d responses in %.2f s)", ok, hp.wall.Seconds()))
	r.add("latency_p50_ms", percentile(lat, 50), "ms", reqs)
	r.add("latency_p90_ms", percentile(lat, 90), "ms", fmt.Sprintf("(%d requests, %d beyond p90)", n, n-int(math.Ceil(0.9*float64(n)))))
	r.add("cpu_ms_per_req", float64(hp.cpu.Microseconds())/1e3/float64(n), "ms", fmt.Sprintf("(%.2f CPU-s over %d requests)", hp.cpu.Seconds(), n))
	r.add("error_pct", 100*float64(hp.failed)/float64(n), "%", fmt.Sprintf("(%d of %d)", hp.failed, n))
	setups := make([]float64, len(hp.setups))
	for i, s := range hp.setups {
		setups[i] = s.Seconds()
	}
	r.add("setup_s", median(setups), "s", fmt.Sprintf("(median of %d restarts around the run)", len(setups)))
	r.add("peak_rss_mb", float64(hp.peakRSS)/1e6, "MB", "(daemon VmHWM at end of run)")
	return r
}

// snapshotInfo describes the cache snapshot every run restores.
type snapshotInfo struct {
	Path    string  `json:"path"`
	Entries int     `json:"entries"`
	Bytes   int64   `json:"bytes"`
	PrimeS  float64 `json:"prime_s"`
}

var savedRE = regexp.MustCompile(`saved (\d+) cached profiles`)

// ensureSnapshot returns the snapshot for this seqpointd binary,
// building it on first use: a cold daemon serves the cover list, then
// SIGTERM makes its drain write the snapshot.
func ensureSnapshot(ctx context.Context, binHash string, conns int) (snapshotInfo, error) {
	path := filepath.Join(workDir, "snapshots", binHash[:16]+".json")
	meta := path + ".meta"
	var info snapshotInfo
	if b, err := os.ReadFile(meta); err == nil && json.Unmarshal(b, &info) == nil {
		if _, err := os.Stat(info.Path); err == nil {
			return info, nil
		}
	}
	tmp := path + ".priming"
	os.Remove(tmp)
	cover, err := coverList()
	if err != nil {
		return info, err
	}
	start := time.Now()
	d, err := startDaemon(ctx, daemonBin, tmp, runtime.NumCPU())
	if err != nil {
		return info, err
	}
	items, _ := drive(d.base, cover, conns)
	checkAll(cover, items)
	for i, it := range items {
		if !it.ok() {
			d.kill()
			return info, fmt.Errorf("priming request %d (%s) failed: status %d: %v %s", i, cover.Requests[i].Path, it.status, it.err, truncate(it.body, 200))
		}
	}
	if err := d.stop(); err != nil {
		return info, fmt.Errorf("priming daemon: %w", err)
	}
	m := savedRE.FindStringSubmatch(d.logText())
	if m == nil {
		return info, fmt.Errorf("priming daemon did not report its snapshot:\n%s", d.logText())
	}
	info.PrimeS = time.Since(start).Seconds()
	info.Entries, _ = strconv.Atoi(m[1])
	if err := os.Rename(tmp, path); err != nil {
		return info, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return info, err
	}
	info.Path, info.Bytes = path, st.Size()
	b, _ := json.Marshal(info)
	return info, os.WriteFile(meta, b, 0o644)
}

// loadEngine restores the snapshot into a fresh engine sized like the
// daemon's, returning the load time.
func loadEngine(path string, parallelism int) (*engine.Engine, int, time.Duration, error) {
	eng := engine.New()
	eng.SetParallelism(parallelism)
	start := time.Now()
	n, err := eng.LoadSnapshot(path)
	return eng, n, time.Since(start), err
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func shortHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
