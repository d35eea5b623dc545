// Command seqpointd serves the simulation engine over HTTP/JSON: the
// long-running form of SeqPoint's cheap what-if queries. One daemon
// amortizes the profile cache across every request, and with
// -cache-file across restarts too — the cache is loaded on start and
// snapshotted atomically on shutdown (plus periodically with
// -snapshot-interval), so a restarted daemon answers warm.
//
// Usage:
//
//	seqpointd -addr :8080 -cache-file /var/lib/seqpoint/cache.json \
//	          -parallelism 8 -max-inflight 32
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, POST /v1/seqpoint,
// POST /v1/serve, POST /v1/fleet, POST /v1/plan, GET /healthz,
// GET /v1/stats, GET /metrics. See the README's "Running as a service",
// "Online serving simulation", "Fleet simulation" and "Capacity
// planning" sections for request examples.
//
// The daemon runs the garbage collector at GC percent 400 unless GOGC
// is set in its environment (see main).
//
// On SIGINT/SIGTERM the daemon drains instead of dropping work: new
// simulations are refused with a typed 503 ("draining"), in-flight
// computations — including detached ones whose waiters already timed
// out — are given -drain-window to finish, and only then is the final
// cache snapshot written, so everything priced by in-flight work
// survives the restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"seqpoint/internal/engine"
	"seqpoint/internal/server"
)

// options carries everything run needs, so tests can drive a full
// daemon lifecycle in-process without flags or signals.
type options struct {
	addr        string
	cacheFile   string
	parallelism int
	maxInflight int
	timeout     time.Duration
	snapshotInt time.Duration
	drainWindow time.Duration
	// ready, when set, is called once with the bound listen address —
	// the test hook that makes ":0" usable.
	ready func(addr string)
	logf  func(format string, args ...any)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheFile   = flag.String("cache-file", "", "profile-cache snapshot path; empty disables persistence")
		parallelism = flag.Int("parallelism", 0, "engine worker-pool width; <= 0 uses GOMAXPROCS")
		maxInflight = flag.Int("max-inflight", server.DefaultMaxInflight, "max concurrently executing simulation requests")
		timeout     = flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request wall-clock budget")
		snapshotInt = flag.Duration("snapshot-interval", 0, "periodic cache-snapshot interval; 0 snapshots only on shutdown")
		drainWindow = flag.Duration("drain-window", 30*time.Second, "how long shutdown waits for in-flight simulations")
	)
	flag.Parse()

	// Go's minimum heap target is 4 MiB x GOGC/100. The daemon's live
	// heap is small (2,000 cached profiles retain about 1.2 MB), so at
	// the default GOGC=100 the per-request garbage of fleets and
	// corpora triggers a collection every few requests. GC percent 400
	// gives a ~16 MiB floor instead. GOGC set in the environment
	// overrides this; GOMEMLIMIT still caps the heap as usual.
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(400)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, options{
		addr:        *addr,
		cacheFile:   *cacheFile,
		parallelism: *parallelism,
		maxInflight: *maxInflight,
		timeout:     *timeout,
		snapshotInt: *snapshotInt,
		drainWindow: *drainWindow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqpointd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts options) error {
	if opts.logf == nil {
		opts.logf = log.Printf
	}
	if opts.drainWindow <= 0 {
		opts.drainWindow = 30 * time.Second
	}

	eng := engine.New()
	eng.SetParallelism(opts.parallelism)

	if opts.cacheFile != "" {
		n, err := eng.LoadSnapshot(opts.cacheFile)
		switch {
		case err != nil:
			// A corrupt, truncated or version-mismatched snapshot is not
			// fatal: log why and serve cold.
			opts.logf("cache %s unusable, starting cold: %v", opts.cacheFile, err)
		case n > 0:
			opts.logf("restored %d cached profiles from %s", n, opts.cacheFile)
		default:
			opts.logf("no cache at %s, starting cold", opts.cacheFile)
		}
	}

	srv := server.New(server.Options{
		Engine:         eng,
		MaxInflight:    opts.maxInflight,
		RequestTimeout: opts.timeout,
	})
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := context.WithCancel(ctx)
	defer stop()

	// The periodic snapshotter is stopped AND joined before the final
	// shutdown save: without the join, a tick that fired just before the
	// signal could still be mid-write and win the atomic-rename race,
	// persisting a snapshot older than the shutdown one.
	var snapWG sync.WaitGroup
	if opts.cacheFile != "" && opts.snapshotInt > 0 {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			tick := time.NewTicker(opts.snapshotInt)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					n, err := eng.SaveSnapshot(opts.cacheFile)
					if err != nil {
						opts.logf("periodic cache snapshot: %v", err)
						continue
					}
					srv.ObserveSnapshot(int64(n))
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		opts.logf("seqpointd listening on %s (parallelism=%d, max-inflight=%d)",
			ln.Addr(), eng.Parallelism(), opts.maxInflight)
		errc <- httpSrv.Serve(ln)
	}()
	if opts.ready != nil {
		opts.ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain in dependency order: refuse new simulations first, then
	// close the HTTP side (connected clients get typed 503s until their
	// connections wind down), then join the detached computations that
	// outlive their handlers, then the snapshotter — and only once
	// nothing can add another profile, write the final snapshot.
	opts.logf("shutting down: draining (window %s)", opts.drainWindow)
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.drainWindow)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		opts.logf("shutdown: %v", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		opts.logf("drain incomplete, snapshotting what finished: %v", err)
	}
	stop()
	snapWG.Wait()

	if opts.cacheFile != "" {
		start := time.Now()
		n, err := eng.SaveSnapshot(opts.cacheFile)
		if err != nil {
			return fmt.Errorf("saving cache snapshot: %w", err)
		}
		// n is what actually landed on disk — not a stats reading taken
		// before the write, which missed work that completed during the
		// drain.
		opts.logf("saved %d cached profiles to %s in %s", n, opts.cacheFile, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
