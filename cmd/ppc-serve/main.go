// Command ppc-serve exposes the simulator as an HTTP service speaking
// the v1 API (see docs/api-v1.md): POST /v1/run runs (or serves from
// cache) one simulation, /v1/healthz reports liveness, /v1/statsz
// reports queue depth, cache hit rate, and hit/miss latency
// percentiles. The retired pre-v1 paths (/simulate, /healthz, /statsz)
// answer 404 like any unknown path.
//
// A ppc-serve process is also the worker role of a sweep cluster:
// point ppc-coord's -backends flag at a fleet of these and the
// coordinator shards grid cells across their result caches.
//
// Usage:
//
//	ppc-serve -addr :8080
//	curl -s localhost:8080/v1/run -d '{"trace":"synth","algorithm":"forestall","disks":4}'
//
// SIGINT/SIGTERM triggers a graceful shutdown: intake stops, in-flight
// and queued simulations finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppcsim/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "queued-request bound before 429s (0 = 4x workers)")
		entries  = flag.Int("cache-entries", 0, "result-cache entries (0 = 1024)")
		timeout  = flag.Duration("timeout", 0, "per-request simulation deadline (0 = 60s)")
		maxBody  = flag.Int64("max-body", 0, "request body byte limit (0 = 8 MiB)")
		drainFor = flag.Duration("drain-timeout", time.Minute, "shutdown drain deadline for open connections")
		storeDir = flag.String("trace-store", "", "trace-store directory for PUT /v1/traces blobs (empty = per-process temp dir)")
		storeCap = flag.Int64("trace-store-bytes", 0, "trace-store byte budget before LRU eviction (0 = 1 GiB)")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *entries,
		DefaultTimeout:  *timeout,
		MaxBodyBytes:    *maxBody,
		TraceStoreDir:   *storeDir,
		TraceStoreBytes: *storeCap,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ppc-serve: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		// Listener failed before any shutdown request.
		fmt.Fprintln(os.Stderr, "ppc-serve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ppc-serve: %v, draining\n", s)
	}

	// Stop accepting connections and let handlers finish, then drain the
	// worker pool so every accepted simulation completes.
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ppc-serve: shutdown:", err)
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "ppc-serve: drained")
}
