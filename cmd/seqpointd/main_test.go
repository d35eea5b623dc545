package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seqpoint/internal/engine"
	"seqpoint/internal/server"
)

// logSink collects the daemon's log lines for assertion.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// TestRunGracefulDrain drives a full daemon lifecycle in-process:
// start, serve real requests, cancel the run context (the signal
// path), and verify the shutdown drained cleanly — run returns nil,
// the final snapshot holds the priced profiles, and the shutdown log
// reports the count actually written, not a stale stats reading.
func TestRunGracefulDrain(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "cache.json")
	logs := &logSink{}
	ready := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr:        "127.0.0.1:0",
			cacheFile:   cacheFile,
			maxInflight: 4,
			timeout:     server.DefaultRequestTimeout,
			drainWindow: 20 * time.Second,
			ready:       func(addr string) { ready <- addr },
			logf:        logs.logf,
		})
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	c := server.NewClient("http://"+addr, nil)
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	if _, err := c.Simulate(ctx, server.SimulateRequest{Model: "gnmt", Batch: 2, SeqLens: []int{4, 7}}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(metrics, "seqpoint_requests_total") {
		t.Fatalf("metrics exposition missing request counters:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}

	// The shutdown snapshot holds what the daemon priced, and the log
	// reports exactly that count.
	restored := engine.New()
	n, err := restored.LoadSnapshot(cacheFile)
	if err != nil {
		t.Fatalf("loading shutdown snapshot: %v", err)
	}
	if n == 0 {
		t.Fatal("shutdown snapshot holds no profiles despite served requests")
	}
	m := regexp.MustCompile(`saved (\d+) cached profiles`).FindStringSubmatch(logs.joined())
	if m == nil {
		t.Fatalf("shutdown log never reported the saved count:\n%s", logs.joined())
	}
	if logged, _ := strconv.Atoi(m[1]); logged != n {
		t.Fatalf("shutdown log claims %d profiles saved, snapshot holds %d", logged, n)
	}
	if !strings.Contains(logs.joined(), "draining") {
		t.Fatalf("shutdown log never mentioned draining:\n%s", logs.joined())
	}
}

// TestRunWarmRestart: a second daemon started on the first one's
// snapshot reports a warm start.
func TestRunWarmRestart(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "cache.json")
	// The first start finds a snapshot in the retired format 2: it logs
	// the file as unusable and serves cold, and its shutdown snapshot
	// warms the second start.
	stale := `{"magic": "seqpoint-profile-cache", "version": 2, "entries": []}`
	if err := os.WriteFile(cacheFile, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	runOnce := func(warmAssert bool) {
		logs := &logSink{}
		ready := make(chan string, 1)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errc := make(chan error, 1)
		go func() {
			errc <- run(ctx, options{
				addr:      "127.0.0.1:0",
				cacheFile: cacheFile,
				ready:     func(addr string) { ready <- addr },
				logf:      logs.logf,
			})
		}()
		var addr string
		select {
		case addr = <-ready:
		case err := <-errc:
			t.Fatalf("run exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
		c := server.NewClient("http://"+addr, nil)
		if _, err := c.Simulate(ctx, server.SimulateRequest{Model: "gnmt", Batch: 2, SeqLens: []int{4, 7}}); err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if warmAssert {
			st, err := c.Stats(ctx)
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if st.Engine.Misses != 0 {
				t.Fatalf("restarted daemon recomputed %d profiles, want warm cache", st.Engine.Misses)
			}
			if !strings.Contains(logs.joined(), "restored") {
				t.Fatalf("restart log never mentioned the restored cache:\n%s", logs.joined())
			}
		} else if !strings.Contains(logs.joined(), "unusable") {
			t.Fatalf("start log never refused the format-2 cache:\n%s", logs.joined())
		}
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return")
		}
	}

	runOnce(false)
	runOnce(true)
}
