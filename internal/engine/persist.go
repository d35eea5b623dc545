package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"seqpoint/internal/atomicfile"
	"seqpoint/internal/profiler"
)

// SnapshotVersion is the on-disk cache format version. Bump it whenever
// anything that feeds a cached profile changes — the Key layout, the
// IterationProfile layout, or the cost model itself — and every older
// snapshot is invalidated wholesale on load instead of silently serving
// stale prices. Format 2 added each training profile's tuned shapes,
// which the trainer charges autotune from. Format 3 drops the
// per-kernel and per-label breakdowns, which no cached reader used: an
// entry holds the iteration's time, communication time, kernel count,
// counters and tuned shapes. An older file is refused, so the daemon
// logs why and cold-starts once.
const SnapshotVersion = 3

// snapshotMagic distinguishes a seqpoint cache file from arbitrary JSON.
const snapshotMagic = "seqpoint-profile-cache"

// snapshotFile is the serialized form of the engine's profile cache.
type snapshotFile struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one completed cache slot: the full profile-identity
// key and the profile it priced.
type snapshotEntry struct {
	Key     Key                       `json:"key"`
	Profile profiler.IterationProfile `json:"profile"`
}

// WriteSnapshot serializes every completed, non-error cache entry to w
// as versioned JSON and returns how many entries it wrote. Entries are
// emitted in a deterministic order (sorted by key), so identical cache
// contents always produce identical bytes. In-flight computations are
// skipped, not waited for — which is why the returned count, not a
// stats reading taken around the call, is the truth about what landed
// on disk.
func (e *Engine) WriteSnapshot(w io.Writer) (int, error) {
	snap := snapshotFile{Magic: snapshotMagic, Version: SnapshotVersion}
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for k, en := range s.m {
			select {
			case <-en.done:
				if en.err == nil {
					snap.Entries = append(snap.Entries, snapshotEntry{Key: k, Profile: en.p})
				}
			default:
				// Still computing; a snapshot never blocks on it.
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return keyLess(snap.Entries[i].Key, snap.Entries[j].Key) })

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		return 0, err
	}
	return len(snap.Entries), nil
}

// keyLess is a total order over cache keys (every Key field
// participates), so equal cache contents always snapshot to equal
// bytes regardless of sort.Slice's instability.
func keyLess(a, b Key) bool {
	switch {
	case a.Model != b.Model:
		return a.Model < b.Model
	case a.Config.Name != b.Config.Name:
		return a.Config.Name < b.Config.Name
	case a.Config.ClockGHz != b.Config.ClockGHz:
		return a.Config.ClockGHz < b.Config.ClockGHz
	case a.Config.NumCUs != b.Config.NumCUs:
		return a.Config.NumCUs < b.Config.NumCUs
	case a.Config.L1KBPerCU != b.Config.L1KBPerCU:
		return a.Config.L1KBPerCU < b.Config.L1KBPerCU
	case a.Config.L2MB != b.Config.L2MB:
		return a.Config.L2MB < b.Config.L2MB
	case a.Config.HBMGBps != b.Config.HBMGBps:
		return a.Config.HBMGBps < b.Config.HBMGBps
	case a.Config.LaunchOverheadUS != b.Config.LaunchOverheadUS:
		return a.Config.LaunchOverheadUS < b.Config.LaunchOverheadUS
	case a.Cluster.GPUs != b.Cluster.GPUs:
		return a.Cluster.GPUs < b.Cluster.GPUs
	case a.Cluster.Topology != b.Cluster.Topology:
		return a.Cluster.Topology < b.Cluster.Topology
	case a.Cluster.LinkGBps != b.Cluster.LinkGBps:
		return a.Cluster.LinkGBps < b.Cluster.LinkGBps
	case a.Cluster.LinkLatencyUS != b.Cluster.LinkLatencyUS:
		return a.Cluster.LinkLatencyUS < b.Cluster.LinkLatencyUS
	case a.Cluster.Overlap != b.Cluster.Overlap:
		return a.Cluster.Overlap < b.Cluster.Overlap
	case a.Batch != b.Batch:
		return a.Batch < b.Batch
	case a.Phase != b.Phase:
		return a.Phase < b.Phase
	default:
		return a.SeqLen < b.SeqLen
	}
}

// ReadSnapshot restores cache entries from a snapshot previously
// produced by WriteSnapshot and returns how many entries were
// installed. The whole snapshot is decoded and validated before any
// entry is installed, so a corrupt or truncated file leaves the cache
// exactly as it was (cold start). A snapshot written at a different
// SnapshotVersion is rejected entirely — profiles priced under an older
// model must never be served. Entries already present in the cache are
// kept; the snapshot never overwrites live state.
func (e *Engine) ReadSnapshot(r io.Reader) (int, error) {
	var snap snapshotFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return 0, fmt.Errorf("engine: decoding cache snapshot: %w", err)
	}
	if snap.Magic != snapshotMagic {
		return 0, fmt.Errorf("engine: not a profile-cache snapshot (magic %q)", snap.Magic)
	}
	if snap.Version != SnapshotVersion {
		return 0, fmt.Errorf("engine: cache snapshot version %d does not match supported version %d; ignoring stale cache",
			snap.Version, SnapshotVersion)
	}
	return e.install(snap.Entries)
}

// install validates every entry, then adds those whose keys the cache
// does not hold yet and returns how many it added. One invalid entry
// rejects them all, leaving the cache as it was.
func (e *Engine) install(entries []snapshotEntry) (int, error) {
	for i, se := range entries {
		if err := validateEntry(se); err != nil {
			return 0, fmt.Errorf("engine: cache snapshot entry %d invalid: %w", i, err)
		}
	}

	installed := 0
	for _, se := range entries {
		done := make(chan struct{})
		close(done)
		s := e.shardFor(se.Key)
		s.mu.Lock()
		if _, ok := s.m[se.Key]; !ok {
			s.m[se.Key] = &entry{done: done, p: se.Profile}
			installed++
		}
		s.mu.Unlock()
	}
	return installed, nil
}

// validateEntry rejects snapshot entries a live engine could never have
// produced — a tampered or hand-edited file must not poison the cache
// with garbage served as hits for the daemon's lifetime.
func validateEntry(se snapshotEntry) error {
	if err := se.Key.Config.Validate(); err != nil {
		return err
	}
	if err := se.Key.Cluster.Validate(); err != nil {
		return err
	}
	if se.Key.Cluster != se.Key.Cluster.Normalized() {
		return fmt.Errorf("cluster %v is not in normalized form", se.Key.Cluster)
	}
	switch {
	case se.Key.Batch <= 0:
		return fmt.Errorf("batch %d must be positive", se.Key.Batch)
	case se.Key.SeqLen <= 0:
		return fmt.Errorf("sequence length %d must be positive", se.Key.SeqLen)
	case se.Key.Phase != PhaseTrain && se.Key.Phase != PhaseEval:
		return fmt.Errorf("unknown phase %d", se.Key.Phase)
	case !(se.Profile.TimeUS >= 0) || math.IsInf(se.Profile.TimeUS, 0):
		return fmt.Errorf("profile time %v must be finite and non-negative", se.Profile.TimeUS)
	case !(se.Profile.CommUS >= 0) || math.IsInf(se.Profile.CommUS, 0):
		return fmt.Errorf("profile comm time %v must be finite and non-negative", se.Profile.CommUS)
	case se.Profile.NumKernels < 0:
		return fmt.Errorf("kernel count %d must be non-negative", se.Profile.NumKernels)
	case se.Profile.SeqLen != se.Key.SeqLen:
		return fmt.Errorf("profile sequence length %d does not match key %d", se.Profile.SeqLen, se.Key.SeqLen)
	case se.Profile.Batch != se.Key.Cluster.ShardBatch(se.Key.Batch):
		return fmt.Errorf("profile batch %d is not the shard batch of key batch %d on %d GPUs",
			se.Profile.Batch, se.Key.Batch, se.Key.Cluster.GPUs)
	case se.Key.Phase == PhaseEval && len(se.Profile.TunedShapes) > 0:
		return fmt.Errorf("eval profile records %d tuned shapes, want none", len(se.Profile.TunedShapes))
	}
	c := se.Profile.Counters
	for _, v := range [...]float64{c.VALUInsts, c.LoadBytes, c.StoreBytes, c.MemWriteStallCycles} {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("profile counters %+v must be finite and non-negative", c)
		}
	}
	sigs := make(map[string]bool, len(se.Profile.TunedShapes))
	for _, ts := range se.Profile.TunedShapes {
		switch {
		case ts.Signature == "":
			return fmt.Errorf("tuned shape with an empty signature")
		case sigs[ts.Signature]:
			return fmt.Errorf("tuned shape %q listed twice", ts.Signature)
		case !(ts.TimeUS >= 0) || math.IsInf(ts.TimeUS, 0):
			return fmt.Errorf("tuned shape %q time %v must be finite and non-negative", ts.Signature, ts.TimeUS)
		}
		sigs[ts.Signature] = true
	}
	return nil
}

// SaveSnapshot atomically writes the cache snapshot to path and
// returns how many entries it wrote: the bytes land in a temporary
// file in the same directory, which is fsynced and renamed over path
// only after a successful write, so a crash mid-save can never leave a
// truncated snapshot behind.
func (e *Engine) SaveSnapshot(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("engine: creating cache directory: %w", err)
	}
	var n int
	err := atomicfile.Write(path, func(w io.Writer) error {
		var err error
		n, err = e.WriteSnapshot(w)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("engine: saving cache file: %w", err)
	}
	return n, nil
}

// LoadSnapshot restores the cache from path, returning how many entries
// were installed. A missing file is a normal cold start (0, nil); a
// corrupt, truncated or version-mismatched file returns an error and
// leaves the cache untouched, so callers can log the reason and serve
// cold.
func (e *Engine) LoadSnapshot(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("engine: opening cache file: %w", err)
	}
	defer f.Close()
	return e.ReadSnapshot(f)
}
