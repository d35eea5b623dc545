package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
	"seqpoint/internal/profiler"
)

// warmEngine returns an engine whose cache holds a handful of real
// profiles across phases, batches and cluster sizes.
func warmEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	m := models.NewGNMT()
	hw := gpusim.VegaFE()
	for _, sl := range []int{4, 9, 17} {
		if _, err := e.Profile(hw, m, 16, sl, PhaseTrain); err != nil {
			t.Fatalf("profiling SL %d: %v", sl, err)
		}
	}
	if _, err := e.Profile(hw, m, 16, 9, PhaseEval); err != nil {
		t.Fatalf("profiling eval: %v", err)
	}
	if _, err := e.ProfileCluster(hw, gpusim.DefaultCluster(4), m, 16, 9, PhaseTrain); err != nil {
		t.Fatalf("profiling cluster: %v", err)
	}
	// A key differing from the ring entry only in topology: the
	// snapshot's sort order must still be total.
	mesh := gpusim.DefaultCluster(4)
	mesh.Topology = gpusim.TopologyFullMesh
	if _, err := e.ProfileCluster(hw, mesh, m, 16, 9, PhaseTrain); err != nil {
		t.Fatalf("profiling mesh cluster: %v", err)
	}
	return e
}

// dumpCache flattens an engine's completed cache entries for equality
// comparison.
func dumpCache(e *Engine) map[Key]string {
	out := make(map[Key]string)
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for k, en := range s.m {
			select {
			case <-en.done:
				if en.err == nil {
					b, _ := json.Marshal(en.p)
					out[k] = string(b)
				}
			default:
			}
		}
		s.mu.Unlock()
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := warmEngine(t)
	path := filepath.Join(t.TempDir(), "cache.json")
	wrote, err := src.SaveSnapshot(path)
	if err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	dst := New()
	n, err := dst.LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	want := dumpCache(src)
	if wrote != len(want) {
		t.Fatalf("SaveSnapshot reported %d entries written, want %d", wrote, len(want))
	}
	if n != len(want) {
		t.Fatalf("LoadSnapshot restored %d entries, want %d", n, len(want))
	}
	if got := dumpCache(dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored cache differs from source:\ngot  %v\nwant %v", got, want)
	}

	// A restored entry must be served as a hit, not recomputed.
	before := dst.Stats()
	if _, err := dst.Profile(gpusim.VegaFE(), models.NewGNMT(), 16, 9, PhaseTrain); err != nil {
		t.Fatalf("Profile on restored cache: %v", err)
	}
	after := dst.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("restored entry not served warm: hits %d->%d misses %d->%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	e := warmEngine(t)
	var a, b bytes.Buffer
	na, err := e.WriteSnapshot(&a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := e.WriteSnapshot(&b)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Fatalf("two snapshots of the same cache reported %d and %d entries", na, nb)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same cache produced different bytes")
	}
}

func TestLoadSnapshotMissingFileIsColdStart(t *testing.T) {
	e := New()
	n, err := e.LoadSnapshot(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil || n != 0 {
		t.Fatalf("missing file: got (%d, %v), want (0, nil)", n, err)
	}
}

func TestLoadSnapshotCorruptFallsBackCold(t *testing.T) {
	src := warmEngine(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	if _, err := src.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated":   good[:len(good)/2],
		"garbage":     []byte("{not json at all"),
		"empty":       nil,
		"wrong-magic": []byte(`{"magic":"something-else","version":1,"entries":[]}`),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			e := New()
			n, err := e.LoadSnapshot(p)
			if err == nil {
				t.Fatalf("corrupt snapshot loaded without error (%d entries)", n)
			}
			if got := e.Stats().Entries; got != 0 {
				t.Fatalf("corrupt snapshot left %d entries in the cache, want 0", got)
			}
		})
	}
}

func TestLoadSnapshotRejectsTamperedEntries(t *testing.T) {
	src := warmEngine(t)
	path := filepath.Join(t.TempDir(), "cache.json")
	if _, err := src.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one entry's profile time into a negative number: right
	// magic, right version, garbage payload.
	tampered := bytes.Replace(data, []byte(`"TimeUS": `), []byte(`"TimeUS": -`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("test could not find a TimeUS field to tamper with")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New()
	n, err := e.LoadSnapshot(path)
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("tampered snapshot: got (%d, %v), want entry-validation error", n, err)
	}
	if got := e.Stats().Entries; got != 0 {
		t.Fatalf("tampered snapshot installed %d entries, want 0", got)
	}

	// Tampered fields of the cached record. Each case edits the decoded
	// snapshot and loads it back; JSON cannot carry NaN or infinity, so
	// those cases go straight to the validating install step.
	train, eval, cluster := -1, -1, -1
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for i, se := range snap.Entries {
		switch {
		case se.Key.Phase == PhaseTrain && se.Key.Cluster.GPUs > 1 && cluster < 0:
			cluster = i
		case se.Key.Phase == PhaseTrain && len(se.Profile.TunedShapes) > 1 && train < 0:
			train = i
		case se.Key.Phase == PhaseEval && eval < 0:
			eval = i
		}
	}
	if train < 0 || eval < 0 || cluster < 0 {
		t.Fatal("warm snapshot lacks a train entry with tuned shapes, an eval entry or a cluster entry")
	}
	cases := []struct {
		name   string
		tamper func(entries []snapshotEntry)
	}{
		{"empty tuned signature", func(es []snapshotEntry) { es[train].Profile.TunedShapes[0].Signature = "" }},
		{"duplicate tuned signature", func(es []snapshotEntry) {
			ts := es[train].Profile.TunedShapes
			ts[1].Signature = ts[0].Signature
		}},
		{"negative tuned time", func(es []snapshotEntry) { es[train].Profile.TunedShapes[0].TimeUS = -1 }},
		{"NaN tuned time", func(es []snapshotEntry) { es[train].Profile.TunedShapes[0].TimeUS = math.NaN() }},
		{"infinite tuned time", func(es []snapshotEntry) { es[train].Profile.TunedShapes[0].TimeUS = math.Inf(1) }},
		{"tuned shapes on an eval entry", func(es []snapshotEntry) {
			es[eval].Profile.TunedShapes = []profiler.TunedShape{{Signature: "gemm:1x1x1", TimeUS: 1}}
		}},
		{"negative counter", func(es []snapshotEntry) { es[train].Profile.Counters.LoadBytes = -1 }},
		{"NaN counter", func(es []snapshotEntry) { es[eval].Profile.Counters.VALUInsts = math.NaN() }},
		{"infinite counter", func(es []snapshotEntry) { es[train].Profile.Counters.MemWriteStallCycles = math.Inf(1) }},
		{"profile SL differs from key", func(es []snapshotEntry) { es[train].Profile.SeqLen++ }},
		{"profile batch differs from key", func(es []snapshotEntry) { es[eval].Profile.Batch++ }},
		{"cluster profile at the global batch", func(es []snapshotEntry) {
			es[cluster].Profile.Batch = es[cluster].Key.Batch
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var snap snapshotFile
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			tc.tamper(snap.Entries)
			e := New()
			var n int
			b, err := json.Marshal(snap)
			if err == nil {
				n, err = e.ReadSnapshot(bytes.NewReader(b))
			} else {
				n, err = e.install(snap.Entries)
			}
			if err == nil || !strings.Contains(err.Error(), "invalid") {
				t.Fatalf("tampered snapshot: got (%d, %v), want entry-validation error", n, err)
			}
			if got := e.Stats().Entries; got != 0 {
				t.Fatalf("tampered snapshot installed %d entries, want 0", got)
			}
		})
	}
}

func TestLoadSnapshotVersionMismatchInvalidates(t *testing.T) {
	src := warmEngine(t)
	path := filepath.Join(t.TempDir(), "cache.json")
	if _, err := src.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Format 2, whose profiles carried per-kernel and per-label
	// breakdowns, and a version from the future.
	for _, version := range []int{2, 9999} {
		stale := bytes.Replace(data,
			[]byte(fmt.Sprintf(`"version": %d`, SnapshotVersion)), []byte(fmt.Sprintf(`"version": %d`, version)), 1)
		if bytes.Equal(stale, data) {
			t.Fatal("test could not rewrite the snapshot version field")
		}
		if err := os.WriteFile(path, stale, 0o644); err != nil {
			t.Fatal(err)
		}

		e := New()
		n, err := e.LoadSnapshot(path)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-%d snapshot: got (%d, %v), want version error", version, n, err)
		}
		if got := e.Stats().Entries; got != 0 {
			t.Fatalf("version-%d snapshot installed %d entries, want 0", version, got)
		}
	}
}

func TestSaveSnapshotAtomicNoTempLeftover(t *testing.T) {
	e := warmEngine(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "cache.json")
	n, err := e.SaveSnapshot(path)
	if err != nil {
		t.Fatalf("SaveSnapshot into fresh subdirectory: %v", err)
	}
	if n == 0 {
		t.Fatal("SaveSnapshot of a warm engine reported 0 entries written")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache.json" {
		names := make([]string, 0, len(entries))
		for _, en := range entries {
			names = append(names, en.Name())
		}
		t.Fatalf("cache dir holds %v, want exactly [cache.json]", names)
	}
}

func TestReadSnapshotKeepsExistingEntries(t *testing.T) {
	src := warmEngine(t)
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Warm the destination for one of the snapshot's keys first: the
	// restore must not clobber it, and must report one fewer install.
	dst := New()
	if _, err := dst.Profile(gpusim.VegaFE(), models.NewGNMT(), 16, 4, PhaseTrain); err != nil {
		t.Fatal(err)
	}
	total := len(dumpCache(src))
	n, err := dst.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != total-1 {
		t.Fatalf("restore over warm cache installed %d entries, want %d", n, total-1)
	}
	if got := dst.Stats().Entries; got != int64(total) {
		t.Fatalf("cache holds %d entries after merge, want %d", got, total)
	}
}

// loadBench is the snapshot BenchmarkSnapshotLoad restores, built once
// per process.
var loadBench struct {
	once    sync.Once
	data    []byte
	entries int
	err     error
}

// BenchmarkSnapshotLoad times a warm restart's snapshot restore:
// ReadSnapshot into a fresh engine, from a cache warmed with the key
// space a warm daemon serves. That is each of the four SQNNs on config
// #1 and one GPU, with train profiles at batches 1-4 and eval profiles
// at batches 1-16, over 24 SLs across the model's corpus range; eval
// adds the decode length 1. It reports the snapshot's size and entry
// count alongside the load time.
func BenchmarkSnapshotLoad(b *testing.B) {
	loadBench.once.Do(func() {
		e := New()
		hw, cl := gpusim.VegaFE(), gpusim.SingleGPU()
		for _, m := range []models.Model{models.NewDS2(), models.NewGNMT(), models.NewTransformer(), models.NewSeq2Seq()} {
			start, step := 4, 4
			if m.Name() == "ds2" {
				start, step = 50, 10
			}
			sls := make([]int, 24)
			for i := range sls {
				sls[i] = start + i*step
			}
			for batch := 1; batch <= 16; batch++ {
				if batch <= 4 {
					if _, err := e.ProfileSLs(hw, cl, m, batch, sls, PhaseTrain); err != nil {
						loadBench.err = err
						return
					}
				}
				if _, err := e.ProfileSLs(hw, cl, m, batch, append([]int{1}, sls...), PhaseEval); err != nil {
					loadBench.err = err
					return
				}
			}
		}
		var buf bytes.Buffer
		loadBench.entries, loadBench.err = e.WriteSnapshot(&buf)
		loadBench.data = buf.Bytes()
	})
	if loadBench.err != nil {
		b.Fatal(loadBench.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := New().ReadSnapshot(bytes.NewReader(loadBench.data))
		if err != nil || n != loadBench.entries {
			b.Fatalf("restored %d of %d entries: %v", n, loadBench.entries, err)
		}
	}
	b.ReportMetric(float64(len(loadBench.data))/1e6, "MB")
	b.ReportMetric(float64(loadBench.entries), "entries")
}
