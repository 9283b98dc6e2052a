// Command ppc-coord is the coordinator role of a sweep cluster: it
// accepts whole sweep grids as jobs (POST /v1/jobs), shards their cells
// across a fleet of ppc-serve workers by consistent-hash routing on the
// canonical cache key, streams results back as NDJSON, requeues cells
// from failed workers, and persists completed grids so identical
// resubmissions are served from storage with zero recomputation. See
// docs/api-v1.md for the endpoint schemas.
//
// Usage:
//
//	ppc-coord -addr :8070 -backends http://w1:8080,http://w2:8080
//	ppc-coord -addr :8070 -embedded 4            # single-process cluster
//	ppc-coord -backends ... -store /var/lib/ppc  # grids survive restarts
//
// SIGINT/SIGTERM triggers a graceful shutdown: intake stops, streaming
// jobs finish, embedded workers drain, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ppcsim/internal/serve"
	"ppcsim/internal/serve/coord"
)

func main() {
	var (
		addr     = flag.String("addr", ":8070", "listen address")
		backends = flag.String("backends", "", "comma-separated worker base URLs (empty = embedded workers)")
		embedded = flag.Int("embedded", 2, "in-process workers when -backends is empty")
		storeDir = flag.String("store", "", "directory for persisted grids (empty = in-memory)")
		maxBody  = flag.Int64("max-body", 0, "request body byte limit (0 = 8 MiB)")
		workers  = flag.Int("workers", 0, "embedded mode: concurrent simulations per worker (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "embedded mode: per-run simulation deadline (0 = 60s)")
		drainFor = flag.Duration("drain-timeout", time.Minute, "shutdown drain deadline for open connections")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "ppc-coord:", err)
		os.Exit(1)
	}

	var fleet []coord.Backend
	closeFleet := func() {}
	if *backends != "" {
		for _, u := range strings.Split(*backends, ",") {
			u = strings.TrimSpace(strings.TrimRight(u, "/"))
			if u == "" {
				continue
			}
			// The URL is the backend's name: unique, stable, and the same
			// string on every coordinator pointing at the same fleet, so ring
			// routing agrees across coordinator restarts.
			fleet = append(fleet, coord.NewHTTPBackend(u, u, nil))
		}
		if len(fleet) == 0 {
			die(errors.New("-backends given but contains no URLs"))
		}
	} else {
		fleet, closeFleet = coord.NewEmbeddedBackends(*embedded, serve.Config{
			Workers:        *workers,
			DefaultTimeout: *timeout,
		})
		fmt.Fprintf(os.Stderr, "ppc-coord: embedded mode, %d in-process workers\n", len(fleet))
	}

	cfg := coord.Config{
		Backends:     fleet,
		MaxBodyBytes: *maxBody,
	}
	if *storeDir != "" {
		store, err := coord.NewDirStore(*storeDir)
		if err != nil {
			die(err)
		}
		cfg.Store = store
	}
	c, err := coord.New(cfg)
	if err != nil {
		die(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: c.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ppc-coord: listening on %s (%d backends)\n", *addr, len(fleet))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		closeFleet()
		die(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ppc-coord: %v, draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ppc-coord: shutdown:", err)
	}
	closeFleet()
	fmt.Fprintln(os.Stderr, "ppc-coord: drained")
}
