// Command ppc-load is the serving stack's load generator and capacity
// meter: it drives a v1 server (ppc-serve, or a ppc-coord front end)
// with a deterministic, seeded open-loop request mix and writes a
// versioned LOAD_<n>.json capacity report — per-class latency
// percentiles, achieved-vs-offered RPS, error/429/timeout counts, the
// 429-backpressure saturation point (ramp mode), and an SLO verdict.
// It is the serving analogue of the BENCH_<n>.json records: check a
// report in and every future serving change is gated on measured
// capacity. See docs/load.md for the spec and report vocabulary.
//
// Usage:
//
//	ppc-load -mode ramp                          # embedded server, default ramp
//	ppc-load -target http://localhost:8080       # against a running ppc-serve
//	ppc-load -spec load.json -o LOAD_1.json      # full spec control
//	ppc-load -mode burst -low-rps 50 -high-rps 2000
//
// With no -target, ppc-load runs an embedded in-process server (the
// full HTTP handler path minus the TCP stack) sized by -workers/-queue,
// so a laptop measurement and a CI gate use the same code path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ppcsim/internal/load"
	"ppcsim/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ppc-load:", err)
		os.Exit(1)
	}
}

// run is main with the process edges injected for the tests.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ppc-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "LoadSpec JSON file (overrides the mode/rps flags)")
		check    = fs.String("check", "", "parse an existing LOAD report strictly and exit (round-trip gate)")
		target   = fs.String("target", "", "v1 server base URL (empty = embedded in-process server)")
		out      = fs.String("o", "", "output file (default: next unused LOAD_<n>.json)")
		seed     = fs.Int64("seed", 1, "request-mix and jitter seed")
		mode     = fs.String("mode", "ramp", "ramp, sweep, or burst (ignored with -spec)")

		startRPS    = fs.Float64("start-rps", 100, "ramp: first step's offered RPS")
		stepRPS     = fs.Float64("step-rps", 100, "ramp: offered RPS increase per step")
		maxRPS      = fs.Float64("max-rps", 3000, "ramp: give up above this offered RPS")
		stepSeconds = fs.Float64("step-seconds", 1, "ramp: seconds per step")
		onset       = fs.Float64("onset", 0, "ramp: 429 fraction declaring saturation (0 = default 0.01)")

		rpsGrid     = fs.String("rps-grid", "100,500,1000", "sweep: comma-separated RPS points")
		perPoint    = fs.Float64("seconds-per-point", 2, "sweep: seconds per grid point")
		lowRPS      = fs.Float64("low-rps", 100, "burst: baseline/recovery RPS")
		highRPS     = fs.Float64("high-rps", 2000, "burst: overload RPS")
		period      = fs.Float64("period", 4, "burst: seconds per low+high cycle")
		cycles      = fs.Int("cycles", 3, "burst: square-wave cycles")
		coldRefs    = fs.Int("cold-refs", 0, "references per synthesized cold trace body (0 = 192)")
		maxInFlight = fs.Int("max-in-flight", 0, "open-loop in-flight cap before arrivals are shed (0 = 4096)")

		workers    = fs.Int("workers", 0, "embedded server: concurrent simulations (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "embedded server: queue bound before 429s (0 = 4x workers)")
		entries    = fs.Int("cache-entries", 0, "embedded server: result-cache entries (0 = 1024)")
		maxBody    = fs.Int64("max-body", 0, "embedded server: request body byte limit (0 = 8 MiB)")
		simTimeout = fs.Duration("sim-timeout", 0, "embedded server: per-request simulation deadline (0 = 60s)")
		clientTO   = fs.Duration("client-timeout", 30*time.Second, "HTTP target: per-request client deadline (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			return err
		}
		rep, err := load.ParseReport(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", *check, err)
		}
		fmt.Fprintf(stdout, "%s: valid v%d report (%d phases, target %s)\n", *check, rep.Version, len(rep.Phases), rep.Target)
		return nil
	}

	var spec *load.LoadSpec
	if *specPath != "" {
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if spec, err = load.ParseLoadSpec(raw); err != nil {
			return fmt.Errorf("%s: %w", *specPath, err)
		}
	} else {
		spec = &load.LoadSpec{Seed: *seed, Mode: *mode, ColdRefs: *coldRefs, MaxInFlight: *maxInFlight}
		switch *mode {
		case "ramp":
			spec.Ramp = &load.RampSpec{
				StartRPS:         *startRPS,
				StepRPS:          *stepRPS,
				MaxRPS:           *maxRPS,
				StepSeconds:      *stepSeconds,
				Onset429Fraction: *onset,
			}
		case "sweep":
			grid, err := parseFloats(*rpsGrid)
			if err != nil {
				return fmt.Errorf("-rps-grid: %w", err)
			}
			spec.Sweep = &load.SweepSpec{RPS: grid, SecondsPerPoint: *perPoint}
		case "burst":
			spec.Burst = &load.BurstSpec{LowRPS: *lowRPS, HighRPS: *highRPS, PeriodSeconds: *period, Cycles: *cycles}
		}
		if err := spec.Validate(); err != nil {
			return err
		}
	}

	var tgt load.Target
	if *target != "" {
		tgt = load.NewHTTPTarget(strings.TrimRight(*target, "/"), *clientTO)
	} else {
		srv := serve.New(serve.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheEntries:   *entries,
			MaxBodyBytes:   *maxBody,
			DefaultTimeout: *simTimeout,
		})
		defer srv.Close()
		tgt = load.NewHandlerTarget("embedded", srv.Handler())
		fmt.Fprintf(stderr, "ppc-load: embedded server (workers=%d queue=%d)\n",
			srv.Snapshot().Workers, srv.Snapshot().QueueCapacity)
	}

	runner := &load.Runner{Spec: spec, Target: tgt, Log: stderr}
	rep, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	load.WriteTable(stderr, rep)

	path := *out
	if path == "" {
		path = load.NextReportPath(".")
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, path)
	if rep.SLO != nil && !rep.SLO.Pass {
		return fmt.Errorf("SLO verdict: FAIL (%d violations; see %s)", len(rep.SLO.Violations), path)
	}
	return nil
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
